package disk

import "slices"

// Run is a maximal set of physically consecutive pages read or written by a
// single request.
type Run struct {
	Start PageID
	N     int
}

// End returns the page following the last page of the run.
func (r Run) End() PageID { return r.Start + PageID(r.N) }

// Contains reports whether the run covers page id.
func (r Run) Contains(id PageID) bool { return id >= r.Start && id < r.End() }

// normalize returns pages sorted and deduplicated, leaving the input
// untouched: callers routinely plan a schedule and then iterate the original
// request list, so sorting it in place (as an earlier version did) silently
// reordered pages under the caller. Input that is already strictly ascending
// — buffer.Missing's output always is — is returned as it is, uncopied.
func normalize(pages []PageID) []PageID {
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			sorted := slices.Clone(pages)
			slices.Sort(sorted)
			return slices.Compact(sorted)
		}
	}
	return pages
}

// PlanSLM appends to runs the close-to-optimal read schedule of Seeger,
// Larson and McFadyen [SLM93] (paper section 5.4.2) for a set of requested
// pages, and returns the extended slice: the pages are read in ascending
// order and a gap of g non-requested pages is read through when g < l, where
// l = tl/tt − 1/2 is the break-even length; a gap of length >= l interrupts
// the request (costing one extra rotational delay but saving the gap
// transfers).
//
// The requested slice may be unsorted and contain duplicates (duplicate-heavy
// inputs arise when several objects of one unit share pages); it is never
// modified, and sorted duplicate-free input costs no allocation. Any l < 1 —
// including the l = 0 that SLMGapLength yields for latency-poor disks and
// negative values — degrades to reading only maximal runs of requested
// pages: duplicates collapse, adjacent pages (gap 0) share a run, and every
// positive gap breaks the request.
func PlanSLM(runs []Run, requested []PageID, l int) []Run {
	pages := normalize(requested)
	if len(pages) == 0 {
		return runs
	}
	l = max(l, 1) // below 1: merge only truly adjacent pages
	runs = append(runs, Run{Start: pages[0], N: 1})
	for _, p := range pages[1:] {
		cur := &runs[len(runs)-1]
		gap := int(p - cur.End())
		if gap < l {
			// Read through the gap (gap may be 0 for adjacent pages).
			cur.N += gap + 1
		} else {
			runs = append(runs, Run{Start: p, N: 1})
		}
	}
	return runs
}

// PlanRequired appends to runs the page-by-page schedule that reads only
// requested pages, merging exactly adjacent ones into single requests (the
// "reading only required pages" alternative of the paper's Figure 9).
func PlanRequired(runs []Run, requested []PageID) []Run {
	return PlanSLM(runs, requested, 1)
}

// ScheduleCost returns the modelled cost of executing runs as one
// uninterrupted access to a single storage unit: the first run pays seek and
// latency, every further run pays one additional rotational delay, and every
// covered page pays a transfer (paper section 5.4.3).
func ScheduleCost(runs []Run, p Params) float64 {
	if len(runs) == 0 {
		return 0
	}
	var pages int
	for _, r := range runs {
		pages += r.N
	}
	return p.SeekMS + float64(len(runs))*p.LatencyMS + float64(pages)*p.TransferMS
}

// TotalPages returns the number of pages covered by runs.
func TotalPages(runs []Run) int {
	var n int
	for _, r := range runs {
		n += r.N
	}
	return n
}

package store

import (
	"fmt"
	"slices"
	"sync"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// unitFor returns the cluster unit of a data page.
func (c *Cluster) unitFor(leaf disk.PageID) *clusterUnit {
	u := c.units[leaf]
	if u == nil {
		panic(fmt.Sprintf("store: data page %d has no cluster unit", leaf))
	}
	return u
}

// scratch is the reusable memory of one query (or one prepared fetch): the
// candidates of the data page being processed, their unit pages, the read
// plan and the pages it pins, the page headers a disk read fills, their
// serializations as views, the vertices of the candidate under refinement,
// the answers so far, and the query's tally. Queries run concurrently under
// Env's read lock, so a scratch belongs to exactly one query at a time and
// nothing of it hangs on the organization.
type scratch struct {
	ids      []object.ID
	pages    []disk.PageID // requested unit pages
	pinned   []disk.PageID // the resident subset of pages, pinned during a capture
	runs     []disk.Run    // the read plan of a unit access
	hdrs     [][]byte      // page headers a read fills; the buffer leaves them cleared
	views    [][]byte      // serializations: page sub-slices, or slices of spill
	spill    []byte        // objects straddling pages, assembled
	verts    []geom.Point
	knn      []knnCand   // a k-NN query's best candidates so far
	near     []nearEntry // a k-NN query's entries of the data page in hand
	maxDists []float64   // and their keys' MaxDist
	answer   []object.ID // collected here, copied out once at its final size
	tally    disk.Tally  // every read, write-back, hit and miss the query causes
}

// maxPooledAnswer is the largest answer slice a released scratch keeps, 64 KiB
// of IDs: one huge answer must not stay pinned in the pool.
const maxPooledAnswer = 64 << 10 / 8

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool, dropping its page references: a
// pooled scratch must not keep evicted pages alive.
func (sc *scratch) release() {
	clear(sc.views[:cap(sc.views)])
	clear(sc.hdrs[:cap(sc.hdrs)])
	clear(sc.near[:cap(sc.near)]) // entry payloads are buffer page sub-slices
	if cap(sc.answer) > maxPooledAnswer {
		sc.answer = nil
	}
	if cap(sc.knn) > maxPooledAnswer {
		sc.knn = nil
	}
	scratchPool.Put(sc)
}

// decode parses a candidate's serialization for refinement, its vertices
// landing in the scratch.
func (sc *scratch) decode(view []byte) object.View {
	v, err := object.Decode(view, sc.verts)
	if err != nil {
		panic(fmt.Sprintf("store: corrupt object: %v", err))
	}
	sc.verts = v.Vertices
	return v
}

// The exact predicates of the three queries, run on the decoded vertices.

// keyDecides reports whether a window query's candidate with this key is an
// answer by its key alone: the key covers the object (Organization.Insert),
// so an object whose key lies inside w intersects w.
func keyDecides(key, w geom.Rect) bool { return !key.IsEmpty() && w.ContainsRect(key) }

// inWindow is the refinement step of a window query for one candidate, its
// fetch already charged. A candidate whose key decides it is an answer without
// its view being looked at — the layout may not even have assembled it — and
// every other candidate takes the exact test on its decoded vertices.
func (sc *scratch) inWindow(key geom.Rect, view []byte, w geom.Rect) bool {
	if keyDecides(key, w) {
		return true
	}
	return intersectsRect(sc.decode(view), w)
}

// intersectsRect is Polyline.IntersectsRect and Polygon.IntersectsRect less
// their bounding-box rejection: the filter step has matched the candidate by
// its key already, and recomputing the MBR costs a pass over the vertices.
func intersectsRect(v object.View, w geom.Rect) bool {
	vs := v.Vertices
	for i := 0; i+1 < len(vs); i++ {
		if (geom.Segment{A: vs[i], B: vs[i+1]}).IntersectsRect(w) {
			return true
		}
	}
	if !v.Polygon {
		return false
	}
	// The closing edge; failing that, the window lies inside the ring or outside.
	return (geom.Segment{A: vs[len(vs)-1], B: vs[0]}).IntersectsRect(w) ||
		(&geom.Polygon{Vertices: vs}).ContainsPoint(w.Center())
}

func containsPoint(v object.View, p geom.Point) bool {
	if v.Polygon {
		return (&geom.Polygon{Vertices: v.Vertices}).ContainsPoint(p)
	}
	return (&geom.Polyline{Vertices: v.Vertices}).ContainsPoint(p)
}

func distToPoint(v object.View, p geom.Point) float64 {
	if v.Polygon {
		return (&geom.Polygon{Vertices: v.Vertices}).DistToPoint(p)
	}
	return (&geom.Polyline{Vertices: v.Vertices}).DistToPoint(p)
}

// unmarshalViews builds the heap objects of captured serializations (pure CPU
// work): what the join and the public fetch API hand out.
func unmarshalViews(views [][]byte) []*object.Object {
	out := make([]*object.Object, 0, len(views))
	for _, view := range views {
		o, err := object.Unmarshal(view)
		if err != nil {
			panic(fmt.Sprintf("store: corrupt object: %v", err))
		}
		out = append(out, o)
	}
	return out
}

// candidates decodes the object references of a data page's qualifying
// entries into sc.ids, tallying the filter-step output.
func (sc *scratch) candidates(entries []rtree.Entry, res *QueryResult) []object.ID {
	sc.ids = sc.ids[:0]
	for i := range entries {
		id, size := decodePayload(entries[i].Payload)
		sc.ids = append(sc.ids, id)
		res.Candidates++
		res.CandidateBytes += int64(size)
	}
	return sc.ids
}

// requestedPages appends to out the distinct unit pages covering the given
// objects, in order of first appearance (Missing and the read planners sort
// what they need sorted).
func (c *Cluster) requestedPages(u *clusterUnit, ids []object.ID, out []disk.PageID) []disk.PageID {
	for _, id := range ids {
		pos, ok := u.index[id]
		if !ok {
			panic(fmt.Sprintf("store: object %d not in this cluster unit", id))
		}
		uo := u.objects[pos]
		for p := uo.off / disk.PageSize; p <= (uo.off+uo.size-1)/disk.PageSize; p++ {
			if pid := u.extent.Start + disk.PageID(p); !slices.Contains(out, pid) {
				out = append(out, pid)
			}
		}
	}
	return out
}

// fetchPlan reads the unit pages sc.pages lists through m according to the
// technique and returns nothing; the pages end up in m, the I/O in sc's
// tally, and the plan and the page headers of its reads in sc.
func (c *Cluster) fetchPlan(u *clusterUnit, m *buffer.Manager, tech Technique, sc *scratch) {
	var missBuf [128]disk.PageID // as below: the missing pages of any regular unit fit
	requested, t := sc.pages, &sc.tally
	switch tech {
	case TechComplete:
		// Transfer the whole cluster unit with one read request. (The page
		// list of any regular unit fits the stack array.)
		var buf [128]disk.PageID
		all := buf[:0]
		for i := 0; i < u.usedPages(); i++ {
			all = append(all, u.extent.Start+disk.PageID(i))
		}
		missing := m.Missing(all, missBuf[:], t)
		if len(missing) == 0 {
			return
		}
		// One request for the full occupied extent: global clustering in
		// action. (If parts are buffered, the span still covers them; the
		// transfer of a page already in memory costs the same as reading
		// it, so the single covering run is charged.)
		sc.runs = append(sc.runs[:0], disk.Run{Start: u.extent.Start, N: u.usedPages()})
		sc.hdrs = m.ExecutePlan(sc.runs, all, false, t, sc.hdrs)
	case TechSLM, TechSLMVector:
		missing := m.Missing(requested, missBuf[:], t)
		if len(missing) == 0 {
			return
		}
		sc.runs = disk.PlanSLM(sc.runs[:0], missing, m.Disk().Params().SLMGapLength())
		sc.hdrs = m.ExecutePlan(sc.runs, requested, tech == TechSLMVector, t, sc.hdrs)
	case TechPageByPage:
		missing := m.Missing(requested, missBuf[:], t)
		if len(missing) == 0 {
			return
		}
		sc.runs = disk.PlanRequired(sc.runs[:0], missing)
		sc.hdrs = m.ExecutePlan(sc.runs, requested, false, t, sc.hdrs)
	default:
		panic(fmt.Sprintf("store: technique %v not applicable to a cluster fetch", tech))
	}
}

// unitView returns the size bytes at unit offset off, pageAt(i) yielding unit
// page i: the page sub-slice itself when they lie inside one page (the
// common case), else assembled into — and aliasing — *spill. Page data is
// immutable once buffered and a unit's tail page only grows past bytes
// already handed out (see internal/buffer), so a view stays valid even if
// the frames are evicted later.
func unitView(pageAt func(idx int) []byte, off, size int, spill *[]byte) []byte {
	idx, in := off/disk.PageSize, off%disk.PageSize
	pg := pageAt(idx)
	if in+size <= disk.PageSize {
		return pg[in : in+size : in+size]
	}
	start := len(*spill)
	*spill = append(*spill, pg[in:disk.PageSize]...)
	for rest := size - (disk.PageSize - in); rest > 0; rest -= disk.PageSize {
		idx++
		*spill = append(*spill, pageAt(idx)[:min(rest, disk.PageSize)]...)
	}
	return (*spill)[start : start+size : start+size]
}

// capture runs the read schedule of the selected technique for the given
// objects of unit u through m (charging the modelled I/O, and tallying it in
// sc's tally) and returns their
// serializations as views, valid until sc is reused. The pages are pinned
// during the capture so a concurrent query's eviction pressure cannot force
// mid-capture re-reads; the unit's in-memory tail page (not yet flushed)
// takes precedence over its buffered copy. The view of object ids[i] is nil
// when skip(i) holds (skip may be nil): its pages are touched as reading it
// would touch them, so the buffer's recency order does not depend on skip,
// but nothing is sliced or assembled.
func (c *Cluster) capture(u *clusterUnit, ids []object.ID, m *buffer.Manager, tech Technique, sc *scratch, skip func(i int) bool) [][]byte {
	sc.pages = c.requestedPages(u, ids, sc.pages[:0])
	c.fetchPlan(u, m, tech, sc)
	sc.pinned = m.PinPages(sc.pinned[:0], sc.pages)
	defer m.UnpinPages(sc.pinned)
	pageAt := func(idx int) []byte {
		if idx == u.tailIdx && u.tailBuf != nil {
			return u.tailBuf
		}
		pid := u.extent.Start + disk.PageID(idx)
		if pg, ok := m.Touch(pid); ok {
			return pg
		}
		return m.GetTallied(pid, &sc.tally, sc.hdrs) // evicted mid-capture (buffer smaller than object)
	}
	sc.views, sc.spill = sc.views[:0], sc.spill[:0]
	for i, id := range ids {
		uo := u.objects[u.index[id]]
		if skip != nil && skip(i) {
			for idx := uo.off / disk.PageSize; idx <= (uo.off+uo.size-1)/disk.PageSize; idx++ {
				pageAt(idx)
			}
			sc.views = append(sc.views, nil)
			continue
		}
		sc.views = append(sc.views, unitView(pageAt, uo.off, uo.size, &sc.spill))
	}
	return sc.views
}

// PrepareFetch implements Organization for the cluster organization: the
// captured views (one capture, shared with the query path) are unmarshalled
// by the returned step. The TechThreshold decision needs the query window and
// therefore only arises in WindowQuery; join processing passes Complete, SLM,
// SLMVector or PageByPage.
func (c *Cluster) PrepareFetch(leaf disk.PageID, ids []object.ID, m *buffer.Manager, tech Technique) ObjectFetch {
	if tech == TechThreshold {
		tech = TechComplete
	}
	views := c.capture(c.unitFor(leaf), ids, m, tech, new(scratch), nil)
	return func() []*object.Object { return unmarshalViews(views) }
}

// thresholdFor computes the geometric threshold T(c) of section 5.4.1:
//
//	tcompl(c) = ts + tl + tt·size(c)
//	tpage     = ts + noe∅·(tl + nop∅·tt)
//	T(c)      = tcompl(c) / tpage
//
// where size(c) is the unit size in pages, noe∅ the average number of
// entries per data page and nop∅ the average number of pages occupied by an
// object.
func (c *Cluster) thresholdFor(u *clusterUnit) float64 {
	p := c.env.Params()
	noe := float64(c.objects) / float64(max(1, c.tree.LeafPages()))
	nop := float64(c.objectBytes)/float64(max(1, c.objects))/float64(disk.PageSize) + 1
	tcompl := p.SeekMS + p.LatencyMS + p.TransferMS*float64(u.usedPages())
	tpage := p.SeekMS + noe*(p.LatencyMS+nop*p.TransferMS)
	return tcompl / tpage
}

// views implements layout: the qualifying objects of one data page are read
// with a single access to its cluster unit, under the selected technique.
// TechThreshold is decided per unit: page by page when the overlap degree of
// the unit region and the window is below the unit's threshold T(c),
// complete otherwise. An object whose key decides it (keyDecides) is read —
// the transfer is the unit access, and its pages are touched — but its view
// is nil: slicing or assembling it would be work no answer uses.
func (c *Cluster) views(lm rtree.LeafMatch, w geom.Rect, tech Technique, sc *scratch) [][]byte {
	u := c.unitFor(lm.Page)
	if tech == TechThreshold {
		tech = TechComplete
		if lm.Rect.OverlapDegree(w) < c.thresholdFor(u) {
			tech = TechPageByPage
		}
	}
	sc.ids = sc.ids[:0]
	for i := range lm.Matched {
		id, _ := decodePayload(lm.Matched[i].Payload)
		sc.ids = append(sc.ids, id)
	}
	return c.capture(u, sc.ids, c.env.Buf, tech, sc, func(i int) bool { return keyDecides(lm.Matched[i].Rect, w) })
}

// demand implements layout: the unit is one access, and the pages covering
// the objects are its transfer.
func (c *Cluster) demand(leaf disk.PageID, ids []object.ID) Demand {
	u := c.unitFor(leaf)
	return Demand{
		Units: []string{fmt.Sprintf("u%d", u.extent.Start)},
		Pages: c.requestedPages(u, ids, nil),
	}
}

// WindowQueryOptimum returns the theoretical lower bound of Figure 10: the
// measured R*-tree traversal cost plus, per qualifying cluster unit, one
// seek, one rotational delay and the minimum number of page transfers needed
// for the requested objects. No object data is actually moved. It locks and
// tallies like a query.
func (c *Cluster) WindowQueryOptimum(w geom.Rect) (ms float64, res QueryResult) {
	p := c.env.Params()
	sc := c.begin()
	defer c.end(sc)
	c.tree.SearchLeaves(w, &sc.tally, func(lm rtree.LeafMatch) bool {
		ids := sc.candidates(lm.Matched, &res)
		sc.pages = c.requestedPages(c.unitFor(lm.Page), ids, sc.pages[:0])
		ms += p.SeekMS + p.LatencyMS + p.TransferMS*float64(len(sc.pages))
		return true
	})
	res.Tally = sc.tally
	ms += res.Cost.TimeMS(p)
	return ms, res
}

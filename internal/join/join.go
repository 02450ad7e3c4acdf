package join

import (
	"sort"
	"sync"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/rtree"
	"spatialcluster/internal/store"
)

// ExactTestMS is the CPU cost charged per exact geometry test (paper
// section 6.3: "one test needs roughly 0.75 msec" on the decomposed
// representation).
const ExactTestMS = 0.75

// maxWorkers bounds the refinement pool; beyond this the dispatcher cannot
// keep the workers fed anyway.
const maxWorkers = 64

// Config tunes a join run.
type Config struct {
	// BufferPages is the total LRU buffer available for the join; it is
	// split evenly between the two inputs (each side buffers its own tree
	// and object pages). The paper sweeps 200–6,400 pages.
	BufferPages int
	// Technique selects how cluster units are read during object transfer
	// (complete / SLM read / SLM vector read); non-cluster organizations
	// ignore it.
	Technique store.Technique
	// SkipExactTest omits phase 3 (used by experiments that only study
	// I/O, e.g. Figures 14 and 16).
	SkipExactTest bool
	// Workers sets the size of the worker pool that materializes objects
	// and runs the refinement step (phases 2/3). Values <= 1 run
	// single-threaded. The modelled I/O cost, MBRPairs and ResultPairs are
	// identical for every worker count; only wall-clock time changes.
	//
	// A pooled run (Workers > 1, exact test on) overlaps the dispatcher
	// with the pool: the pure-CPU distinct-ID precompute moves off the
	// dispatcher into a pipelined background stage, and prepared groups
	// are queued several deep so the dispatcher materializes ahead of
	// refinement. PrepareFetch — the only stage that charges modelled I/O
	// — stays serialized on the dispatcher in plane order.
	Workers int
	// Stages, when non-nil, accumulates wall-clock stage attribution: how
	// long the serialized dispatcher spent in the MBR join and in transfer
	// preparation, how long it stalled on a saturated worker pool, and the
	// summed worker busy time in refinement. Answers and modelled costs are
	// unchanged by observation.
	Stages *obs.JoinStages
}

// Result reports the costs and cardinalities of one join run.
type Result struct {
	MBRPairs    int // candidate pairs after the filter step
	ResultPairs int // pairs whose exact geometries intersect

	MBRJoinCost  disk.Cost // phase 1 I/O (tree pages, both sides)
	TransferCost disk.Cost // phase 2 I/O (object pages, both sides)
	ExactTests   int
	ExactTestMS  float64 // phase 3 CPU time

	// OptimumMS is the theoretical lower bound of Figure 16 for the
	// object-transfer phase: one seek and one rotational delay per
	// accessed cluster unit (or object, for non-clustered organizations)
	// and each requested page transferred exactly once.
	OptimumMS float64
}

// IOTimeMS returns the modelled I/O time of the join under params p.
func (r Result) IOTimeMS(p disk.Params) float64 {
	return r.MBRJoinCost.TimeMS(p) + r.TransferCost.TimeMS(p)
}

// TotalTimeMS returns I/O plus refinement CPU time (Figure 17).
func (r Result) TotalTimeMS(p disk.Params) float64 {
	return r.IOTimeMS(p) + r.ExactTestMS
}

// entryRef identifies one data entry: its object and its data page.
type entryRef struct {
	id   object.ID
	size int
	leaf disk.PageID
	rect geom.Rect
}

// candidate is one pair of possibly intersecting data entries.
type candidate struct {
	r, s entryRef
}

// leafPair groups the candidates of one data-page pair; objects are
// transferred in leafPair granularity so the cluster techniques can batch
// their reads.
type leafPair struct {
	leafR, leafS disk.PageID
	minX         float64
	cands        []candidate
}

// rGroup is the set of leaf pairs sharing one pinned R-side data page.
type rGroup struct {
	leafR disk.PageID
	minX  float64
	pairs []*leafPair
}

// Run executes the intersection join R ⋈ S over two organizations. Both
// organizations must be flushed (construction finished).
func Run(orgR, orgS store.Organization, cfg Config) Result {
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 1600
	}
	half := cfg.BufferPages / 2
	if half < 2 {
		half = 2
	}
	bufR := buffer.New(orgR.Env().Disk, half)
	bufS := buffer.New(orgS.Env().Disk, half)

	j := &joiner{
		orgR: orgR, orgS: orgS,
		treeR: orgR.Tree(), treeS: orgS.Tree(),
		bufR: bufR, bufS: bufS,
		pairsByLeaf: make(map[[2]disk.PageID]*leafPair),
		decodedR:    make(map[disk.PageID]*rtree.Node),
		decodedS:    make(map[disk.PageID]*rtree.Node),
		sortedR:     make(map[disk.PageID][]sweepEntry),
		sortedS:     make(map[disk.PageID][]sweepEntry),
	}

	var res Result

	// Phase 1: MBR join.
	costR0, costS0 := orgR.Env().Disk.Cost(), orgS.Env().Disk.Cost()
	phase1 := time.Now()
	j.joinNodes(j.readNode(j.treeR, j.bufR, j.treeR.Root()),
		j.readNode(j.treeS, j.bufS, j.treeS.Root()))
	if cfg.Stages != nil {
		cfg.Stages.MBRJoinNS.Add(time.Since(phase1).Nanoseconds())
	}
	res.MBRJoinCost = orgR.Env().Disk.Cost().Sub(costR0).
		Add(orgS.Env().Disk.Cost().Sub(costS0))

	// Order the transfer phase by the plane order of [BKS93b] with leaf
	// pinning: the leaf pairs of one R-side data page form a group (the R
	// page is "pinned" and processed with all its partners before moving
	// on), groups and the pairs within them are ordered by the smallest
	// lower x of the intersection regions.
	groupsByLeaf := make(map[disk.PageID]*rGroup)
	for _, lp := range j.pairsByLeaf {
		res.MBRPairs += len(lp.cands)
		g := groupsByLeaf[lp.leafR]
		if g == nil {
			g = &rGroup{leafR: lp.leafR, minX: lp.minX}
			groupsByLeaf[lp.leafR] = g
		}
		if lp.minX < g.minX {
			g.minX = lp.minX
		}
		g.pairs = append(g.pairs, lp)
	}
	groups := make([]*rGroup, 0, len(groupsByLeaf))
	for _, g := range groupsByLeaf {
		sort.Slice(g.pairs, func(a, b int) bool {
			if g.pairs[a].minX != g.pairs[b].minX {
				return g.pairs[a].minX < g.pairs[b].minX
			}
			return g.pairs[a].leafS < g.pairs[b].leafS
		})
		groups = append(groups, g)
	}
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].minX != groups[b].minX {
			return groups[a].minX < groups[b].minX
		}
		return groups[a].leafR < groups[b].leafR
	})

	// The transfer optimum of Figure 16 is defined for the cluster
	// organization's read techniques only (behind any wrapper, such as the
	// write-ahead log's store).
	_, clusterR := store.Unwrap(orgR).(*store.Cluster)
	_, clusterS := store.Unwrap(orgS).(*store.Cluster)
	var opt *optTracker
	if clusterR && clusterS {
		opt = newOptTracker()
	}

	// Phases 2 (+3): transfer objects group by group and refine.
	costR0, costS0 = orgR.Env().Disk.Cost(), orgS.Env().Disk.Cost()
	tallies := j.runGroups(groups, cfg, opt)
	for _, t := range tallies {
		res.ExactTests += t.exactTests
		res.ExactTestMS += t.exactMS
		res.ResultPairs += t.resultPairs
	}
	res.TransferCost = orgR.Env().Disk.Cost().Sub(costR0).
		Add(orgS.Env().Disk.Cost().Sub(costS0))
	if opt != nil {
		res.OptimumMS = opt.totalMS(orgR.Env().Params())
	}
	return res
}

// distinctIDs collects the distinct R-side (or S-side) object IDs of a leaf
// pair's candidates.
func distinctIDs(cands []candidate, rSide bool) []object.ID {
	seen := make(map[object.ID]bool, len(cands))
	var out []object.ID
	for _, c := range cands {
		ref := c.s
		if rSide {
			ref = c.r
		}
		if !seen[ref.id] {
			seen[ref.id] = true
			out = append(out, ref.id)
		}
	}
	return out
}

// decompose builds decomposed representations keyed by object ID.
func decompose(objs []*object.Object) map[object.ID]*geom.Decomposed {
	out := make(map[object.ID]*geom.Decomposed, len(objs))
	for _, o := range objs {
		out[o.ID] = geom.Decompose(o.Geom)
	}
	return out
}

// joiner carries the traversal state of phase 1.
type joiner struct {
	orgR, orgS   store.Organization
	treeR, treeS *rtree.Tree
	bufR, bufS   *buffer.Manager
	pairsByLeaf  map[[2]disk.PageID]*leafPair

	// decoded caches the deserialized nodes per side: the plane-order
	// descent visits the same subtree once per partner, and re-decoding a
	// 4 KB page on every visit dominated the traversal's wall-clock. The
	// cache only skips the CPU decode — the buffer Get (and with it every
	// modelled charge and LRU movement) still happens per visit, so costs
	// are unchanged. Trees are static during a join.
	decodedR, decodedS map[disk.PageID]*rtree.Node
	// sorted caches the x-sorted sweep projection of each node's entries,
	// for the same reason: a node is swept once per partner node.
	sortedR, sortedS map[disk.PageID][]sweepEntry
}

// sweepProjection returns the cached x-sorted projection of a node's entries.
func (j *joiner) sweepProjection(n *rtree.Node, rSide bool) []sweepEntry {
	cache := j.sortedS
	if rSide {
		cache = j.sortedR
	}
	if s, ok := cache[n.ID]; ok {
		return s
	}
	s := xSorted(n.Entries)
	cache[n.ID] = s
	return s
}

// readNode fetches a tree node through the join buffer.
func (j *joiner) readNode(t *rtree.Tree, m *buffer.Manager, id disk.PageID) *rtree.Node {
	data := m.Get(id)
	cache := j.decodedR
	if t == j.treeS {
		cache = j.decodedS
	}
	if n, ok := cache[id]; ok {
		return n
	}
	n := t.DecodeNode(id, data)
	cache[id] = n
	return n
}

// pairIdx is one intersecting entry pair of a node pair: indices into the
// nodes' entry lists plus the lower x of the intersection region.
type pairIdx struct {
	i, j int
	minX float64
}

// Concrete sort.Interface implementations for the traversal's hot sorts:
// sort.Sort runs the same pdqsort as sort.Slice (so the resulting order is
// bit-for-bit identical) but without reflection-based swaps, which dominated
// the phase-1 wall-clock.

type pairsByIJ []pairIdx

func (p pairsByIJ) Len() int      { return len(p) }
func (p pairsByIJ) Swap(x, y int) { p[x], p[y] = p[y], p[x] }
func (p pairsByIJ) Less(x, y int) bool {
	if p[x].i != p[y].i {
		return p[x].i < p[y].i
	}
	return p[x].j < p[y].j
}

type pairsByMinX []pairIdx

func (p pairsByMinX) Len() int           { return len(p) }
func (p pairsByMinX) Swap(x, y int)      { p[x], p[y] = p[y], p[x] }
func (p pairsByMinX) Less(x, y int) bool { return p[x].minX < p[y].minX }

// sweepEntry is one node entry prepared for the plane sweep.
type sweepEntry struct {
	idx        int
	minX, maxX float64
	minY, maxY float64
}

type sweepByMinX []sweepEntry

func (p sweepByMinX) Len() int           { return len(p) }
func (p sweepByMinX) Swap(x, y int)      { p[x], p[y] = p[y], p[x] }
func (p sweepByMinX) Less(x, y int) bool { return p[x].minX < p[y].minX }

// xSorted projects the entries' MBRs and sorts them by lower x.
func xSorted(entries []rtree.Entry) []sweepEntry {
	out := make([]sweepEntry, len(entries))
	for i := range entries {
		r := entries[i].Rect
		out[i] = sweepEntry{idx: i, minX: r.MinX, maxX: r.MaxX, minY: r.MinY, maxY: r.MaxY}
	}
	sort.Sort(sweepByMinX(out))
	return out
}

// sweepPairs computes the intersecting entry pairs of nodes a and b with a
// plane sweep over x-sorted entries ([BKSS94]'s sort-based optimization):
// both entry lists are sorted by their lower x-coordinate and merged; each
// consumed entry is paired with the not-yet-consumed entries of the other
// side whose lower x lies within its x-extent, testing only the y-overlap.
// This cuts the work per node pair from O(n·m) rectangle tests toward
// O(n·log n + m·log m + k) for k results (and the sorted projections are
// cached per node, so repeated pairings pay only O(n+m+k)). The pairs are
// returned ordered by (i, j) — the emission order of the nested loop it
// replaces — so downstream processing is unchanged.
func (j *joiner) sweepPairs(a, b *rtree.Node) []pairIdx {
	as, bs := j.sweepProjection(a, true), j.sweepProjection(b, false)

	var pairs []pairIdx
	emit := func(ea, eb sweepEntry) {
		if ea.minY <= eb.maxY && eb.minY <= ea.maxY {
			minX := ea.minX
			if eb.minX > minX {
				minX = eb.minX
			}
			pairs = append(pairs, pairIdx{i: ea.idx, j: eb.idx, minX: minX})
		}
	}
	i, k := 0, 0
	for i < len(as) && k < len(bs) {
		if as[i].minX <= bs[k].minX {
			e := as[i]
			for n := k; n < len(bs) && bs[n].minX <= e.maxX; n++ {
				emit(e, bs[n])
			}
			i++
		} else {
			e := bs[k]
			for n := i; n < len(as) && as[n].minX <= e.maxX; n++ {
				emit(as[n], e)
			}
			k++
		}
	}
	sort.Sort(pairsByIJ(pairs))
	return pairs
}

// joinNodes performs the synchronized traversal of [BKS93b]: intersecting
// entry pairs are computed by plane sweep, restricted to the intersection of
// the node regions, ordered by their lower x-coordinate, and descended in
// that order.
func (j *joiner) joinNodes(a, b *rtree.Node) {
	// Height alignment: descend the deeper tree alone until levels match.
	if a.Level > b.Level {
		for i := range a.Entries {
			if a.Entries[i].Rect.Intersects(b.Rect()) {
				j.joinNodes(j.readNode(j.treeR, j.bufR, a.Entries[i].Child), b)
			}
		}
		return
	}
	if b.Level > a.Level {
		for i := range b.Entries {
			if b.Entries[i].Rect.Intersects(a.Rect()) {
				j.joinNodes(a, j.readNode(j.treeS, j.bufS, b.Entries[i].Child))
			}
		}
		return
	}

	pairs := j.sweepPairs(a, b)
	sort.Sort(pairsByMinX(pairs))

	if a.Level == 0 {
		key := [2]disk.PageID{a.ID, b.ID}
		lp := j.pairsByLeaf[key]
		for _, p := range pairs {
			er, es := a.Entries[p.i], b.Entries[p.j]
			idR, sizeR := store.DecodeEntryID(j.orgR, er)
			idS, sizeS := store.DecodeEntryID(j.orgS, es)
			if lp == nil {
				lp = &leafPair{leafR: a.ID, leafS: b.ID, minX: p.minX}
				j.pairsByLeaf[key] = lp
			}
			lp.cands = append(lp.cands, candidate{
				r: entryRef{id: idR, size: sizeR, leaf: a.ID, rect: er.Rect},
				s: entryRef{id: idS, size: sizeS, leaf: b.ID, rect: es.Rect},
			})
		}
		return
	}
	// Directory level: pinning — group by the a-side child so one subtree
	// is joined with all its partners before moving on.
	done := make(map[int]bool, len(pairs))
	for x := 0; x < len(pairs); x++ {
		if done[x] {
			continue
		}
		ai := pairs[x].i
		childA := j.readNode(j.treeR, j.bufR, a.Entries[ai].Child)
		for y := x; y < len(pairs); y++ {
			if done[y] || pairs[y].i != ai {
				continue
			}
			done[y] = true
			childB := j.readNode(j.treeS, j.bufS, b.Entries[pairs[y].j].Child)
			j.joinNodes(childA, childB)
		}
	}
}

// groupTally is the refinement outcome of one rGroup.
type groupTally struct {
	exactTests  int
	resultPairs int
	exactMS     float64
}

// groupWork is one prepared group: the transfers were charged and captured by
// the dispatcher; materialization and refinement are pure CPU work that any
// worker can run.
type groupWork struct {
	g      *rGroup
	fetchR store.ObjectFetch
	fetchS []store.ObjectFetch // one per leaf pair, in pair order
	tally  *groupTally
}

// refine materializes the group's objects and runs the exact geometry tests.
func (w *groupWork) refine() {
	decR := decompose(w.fetchR())
	for pi, lp := range w.g.pairs {
		decS := decompose(w.fetchS[pi]())
		for _, c := range lp.cands {
			w.tally.exactTests++
			w.tally.exactMS += ExactTestMS
			if decR[c.r.id].Intersects(decS[c.s.id]) {
				w.tally.resultPairs++
			}
		}
	}
}

// prepared holds the precomputed distinct-ID lists of one group: pure CPU
// work, a function of the group's candidates only — no I/O, no shared state —
// so it can run ahead of the dispatcher without perturbing anything.
type prepared struct {
	idsR     []object.ID   // distinct R-side IDs of the whole group
	perPairR [][]object.ID // distinct R-side IDs per leaf pair (optimum tracker)
	perPairS [][]object.ID // distinct S-side IDs per leaf pair
}

// prepareIDs computes the distinct IDs once per pair and side, shared between
// the transfer and the optimum tracker.
func prepareIDs(g *rGroup) prepared {
	p := prepared{
		perPairR: make([][]object.ID, len(g.pairs)),
		perPairS: make([][]object.ID, len(g.pairs)),
	}
	seenR := map[object.ID]bool{}
	for pi, lp := range g.pairs {
		p.perPairR[pi] = distinctIDs(lp.cands, true)
		p.perPairS[pi] = distinctIDs(lp.cands, false)
		for _, id := range p.perPairR[pi] {
			if !seenR[id] {
				seenR[id] = true
				p.idsR = append(p.idsR, id)
			}
		}
	}
	return p
}

// runGroups executes phases 2 and 3 over the plane-ordered groups. The
// dispatcher (this goroutine) prepares every object transfer in plane order,
// so all modelled I/O is charged in one deterministic sequence regardless of
// cfg.Workers; with Workers > 1 the prepared groups are refined by a bounded
// worker pool. The pinned R page's objects are fetched once per group.
//
// In a pooled run the distinct-ID precompute runs in a pipelined background
// goroutine (group order preserved) and the task queue is four groups deep
// per worker so the dispatcher materializes ahead; PrepareNS clocks only the
// irreducibly serialized PrepareFetch work.
func (j *joiner) runGroups(groups []*rGroup, cfg Config, opt *optTracker) []groupTally {
	workers := cfg.Workers
	if workers > maxWorkers {
		workers = maxWorkers
	}
	tallies := make([]groupTally, len(groups))

	st := cfg.Stages
	pool := workers > 1 && !cfg.SkipExactTest

	var tasks chan *groupWork
	var preps chan prepared
	var wg sync.WaitGroup
	if pool {
		tasks = make(chan *groupWork, 4*workers)
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for w := range tasks {
					if st == nil {
						w.refine()
						continue
					}
					t0 := time.Now()
					w.refine()
					st.RefineNS.Add(time.Since(t0).Nanoseconds())
				}
			}()
		}
		preps = make(chan prepared, 2*workers)
		go func() {
			defer close(preps)
			for _, g := range groups {
				preps <- prepareIDs(g)
			}
		}()
	}

	for gi, g := range groups {
		var p prepared
		if preps != nil {
			p = <-preps
		} else {
			p = prepareIDs(g)
		}
		var prep0 time.Time
		if st != nil {
			prep0 = time.Now()
		}
		w := &groupWork{g: g, tally: &tallies[gi]}
		w.fetchR = j.orgR.PrepareFetch(g.leafR, p.idsR, j.bufR, cfg.Technique)
		if opt != nil {
			for pi := range g.pairs {
				opt.note(j.orgR, g.leafR, p.perPairR[pi], true)
			}
		}
		for pi, lp := range g.pairs {
			w.fetchS = append(w.fetchS, j.orgS.PrepareFetch(lp.leafS, p.perPairS[pi], j.bufS, cfg.Technique))
			if opt != nil {
				opt.note(j.orgS, lp.leafS, p.perPairS[pi], false)
			}
		}
		if st != nil {
			st.PrepareNS.Add(time.Since(prep0).Nanoseconds())
		}
		switch {
		case cfg.SkipExactTest:
			// I/O-only run (Figures 14 and 16): transfers are charged,
			// materialization and refinement are skipped.
		case tasks != nil:
			if st == nil {
				tasks <- w
			} else {
				t0 := time.Now()
				tasks <- w
				st.StallNS.Add(time.Since(t0).Nanoseconds())
			}
		default:
			if st == nil {
				w.refine()
			} else {
				t0 := time.Now()
				w.refine()
				st.RefineNS.Add(time.Since(t0).Nanoseconds())
			}
		}
	}
	if tasks != nil {
		close(tasks)
		wg.Wait()
	}
	return tallies
}

// optTracker accumulates the theoretical optimum of Figure 16: every storage
// unit accessed once (seek + latency), every requested page transferred
// exactly once. Pages are keyed by (side, id) directly; the per-page
// fmt.Sprintf of an earlier version showed up in dispatcher profiles.
type sidedPage struct {
	rSide bool
	page  disk.PageID
}

type optTracker struct {
	units map[string]bool
	pages map[sidedPage]bool
}

func newOptTracker() *optTracker {
	return &optTracker{units: map[string]bool{}, pages: map[sidedPage]bool{}}
}

// note registers the object demand of one leaf-pair side.
func (o *optTracker) note(org store.Organization, leaf disk.PageID, ids []object.ID, rSide bool) {
	side := "S"
	if rSide {
		side = "R"
	}
	d := store.ObjectPageDemand(org, leaf, ids)
	for _, u := range d.Units {
		o.units[side+u] = true
	}
	for _, p := range d.Pages {
		o.pages[sidedPage{rSide: rSide, page: p}] = true
	}
}

func (o *optTracker) totalMS(p disk.Params) float64 {
	return float64(len(o.units))*(p.SeekMS+p.LatencyMS) +
		float64(len(o.pages))*p.TransferMS
}

package store

import (
	"sort"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// knnCand is one exact-distance candidate of a k-NN query.
type knnCand struct {
	id   object.ID
	dist float64
}

// knnLess is the total order of the k-NN answer: ascending distance, ties by
// ascending object ID. Every organization ranks with this order, so answer
// sets are identical across organizations by construction.
func knnLess(a, b knnCand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// knnAcc accumulates the k best candidates seen so far, kept sorted by
// knnLess. k is at most a few hundred in any sensible browse, so linear
// insertion beats a heap's constant factors and keeps the order obvious.
type knnAcc struct {
	k     int
	cands []knnCand
}

func (a *knnAcc) full() bool { return len(a.cands) == a.k }

// bound returns the current k-th best distance; only meaningful when full.
func (a *knnAcc) bound() float64 { return a.cands[len(a.cands)-1].dist }

// add offers a candidate; it is dropped if it does not beat the k-th best.
func (a *knnAcc) add(c knnCand) {
	if a.full() && !knnLess(c, a.cands[a.k-1]) {
		return
	}
	i := sort.Search(len(a.cands), func(i int) bool { return knnLess(c, a.cands[i]) })
	a.cands = append(a.cands, knnCand{})
	copy(a.cands[i+1:], a.cands[i:])
	a.cands[i] = c
	if len(a.cands) > a.k {
		a.cands = a.cands[:a.k]
	}
}

// NearestQuery implements Organization: a best-first browse over the
// R*-tree (rtree.NearestLeaves) that stops once k exact answers are closer
// than the next data page's optimistic bound. The layout reads the candidates
// of each surfacing data page page by page — the secondary organization pays
// one random read per object, the primary already holds the inline ones in
// the data page (plus overflow reads), and the cluster organization batches
// the page's objects into one page-by-page unit access, since per section 5.5
// the most selective workload reads per page, never per unit — and the
// engine refines each against the query's scratch.
//
// Entries whose MBR MinDist already exceeds the current k-th best distance
// are pruned before the read; the strict comparison keeps boundary ties in
// play, so pruning can never change the answer set. The same test runs again
// after the read, candidate by candidate in entry order: one the page's
// earlier candidates have put beyond the bound is counted in Candidates and
// CandidateBytes — its read is charged — but neither decoded nor measured.
func (b *base) NearestQuery(pt geom.Point, k int) NearestResult {
	var res NearestResult
	if k <= 0 {
		return res
	}
	sc := b.begin()
	defer b.end(sc)
	acc := knnAcc{k: k, cands: sc.knn[:0]}
	// beyond reports whether a lower bound of a distance exceeds the k-th best
	// exact distance. It is monotone in minDist, so the traversal applies it
	// as its stop predicate before reading a popped page — a page (or whole
	// subtree) beyond the bound terminates the browse without charging its
	// read — and it prunes entries by their keys before and after the read.
	beyond := func(minDist float64) bool {
		return acc.full() && minDist > acc.bound()
	}
	b.tree.NearestLeavesTallied(pt, &sc.tally, beyond, func(n *rtree.Node, minDist float64) bool {
		// The node is this browse's scratch: filter it in place.
		kept := n.Entries[:0]
		for _, e := range n.Entries {
			if !beyond(e.Rect.MinDist(pt)) {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			return true
		}
		for i, view := range b.lay.views(rtree.LeafMatch{Page: n.ID, Matched: kept}, geom.EmptyRect(), TechPageByPage, sc) {
			res.Candidates++
			res.CandidateBytes += int64(len(view))
			if beyond(kept[i].Rect.MinDist(pt)) {
				continue // its exact distance is at least its key's: it cannot enter
			}
			v := sc.decode(view)
			acc.add(knnCand{id: v.ID, dist: distToPoint(v, pt)})
		}
		return true
	})
	sc.knn = acc.cands // the scratch keeps what the accumulator grew to
	res.Tally = sc.tally
	res.IDs = make([]object.ID, len(acc.cands))
	res.Dists = make([]float64, len(acc.cands))
	for i, c := range acc.cands {
		res.IDs[i] = c.id
		res.Dists[i] = c.dist
	}
	return res
}

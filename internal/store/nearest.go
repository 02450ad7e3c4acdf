package store

import (
	"cmp"
	"math"
	"slices"
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

// knnSlack widens the upper bound that prunes a data page's entries before
// they are read: relative to the bound itself and to the magnitude of the
// query point's coordinates, because the exact distance of a vertex on a
// key's far corner may round a few units in the last place above the key's
// MaxDist (distToPoint projects onto a segment, MaxDist measures the corner
// directly). Rounding is near 1e-16 relative to those magnitudes, so the
// slack covers it many times over; it can only make the browse read more,
// never change an answer.
const knnSlack = 1e-12

// nearEntry is a data-page entry under consideration by a k-NN query, with
// the MinDist of its key.
type nearEntry struct {
	minDist float64
	e       rtree.Entry
}

func byMinDist(a, b nearEntry) int { return cmp.Compare(a.minDist, b.minDist) }

// survivors narrows a popped data page's entries to those that can still
// enter the answer, nearest first, reusing entries' memory for the result.
// An entry is dropped when its key's MinDist exceeds the current k-th exact
// distance, or exceeds U: the k-th smallest of the accumulator's exact
// distances and the page's remaining keys' MaxDist to pt — the upper-bound
// pruning of Roussopoulos, Kelley and Vincent (SIGMOD 1995). A key contains
// its object (Organization.Insert), so k objects lie within U of pt and the
// answer's k-th distance is at most U; an object whose key is farther than U
// cannot be in it, ties included. The rest are ordered by MinDist, stably, so
// a later candidate's refinement meets the tightest bound the page can give.
func (sc *scratch) survivors(entries []rtree.Entry, pt geom.Point, acc *knnAcc) []rtree.Entry {
	sc.near, sc.maxDists = sc.near[:0], sc.maxDists[:0]
	for _, e := range entries {
		d := e.Rect.MinDist(pt)
		if acc.full() && d > acc.bound() {
			continue
		}
		sc.near = append(sc.near, nearEntry{minDist: d, e: e})
		sc.maxDists = append(sc.maxDists, e.Rect.MaxDist(pt))
	}
	if held := len(acc.cands); held+len(sc.maxDists) >= acc.k {
		// U is the k-th smallest of two ascending lists.
		slices.Sort(sc.maxDists)
		var u float64
		for i, j, n := 0, 0, 0; n < acc.k; n++ {
			if j == len(sc.maxDists) || i < held && acc.cands[i].dist <= sc.maxDists[j] {
				u, i = acc.cands[i].dist, i+1
			} else {
				u, j = sc.maxDists[j], j+1
			}
		}
		u += knnSlack * (u + math.Abs(pt.X) + math.Abs(pt.Y))
		kept := sc.near[:0]
		for _, ne := range sc.near {
			if ne.minDist <= u {
				kept = append(kept, ne)
			}
		}
		sc.near = kept
	}
	slices.SortStableFunc(sc.near, byMinDist)
	out := entries[:0]
	for _, ne := range sc.near {
		out = append(out, ne.e)
	}
	return out
}

// NearestQuery implements Organization: a best-first browse over the
// R*-tree (rtree.NearestLeaves) that stops once k exact answers are closer
// than the next data page's optimistic bound. Before a surfacing data page's
// objects are read, survivors bounds its entries by their keys alone — the
// k-th best exact distance so far, and the upper bound U that the keys'
// MaxDist give — and orders the rest by MinDist. The layout reads only those:
// the secondary organization pays one random read per object, the primary
// already holds the inline ones in the data page (plus overflow reads), and
// the cluster organization reads the page's survivors with one vector-read
// access to its unit (TechSLMVector: the requested pages, with the
// read-through schedule of section 5.4.2, and only those buffered). The
// engine refines each against the query's scratch.
//
// The same MinDist test runs again after the read, candidate by candidate,
// nearest key first: one the page's earlier candidates have put beyond the
// bound is counted in Candidates and CandidateBytes — its read is charged —
// but neither decoded nor measured. The strict comparisons keep boundary ties
// in play, so no pruning changes the answer set.
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
	// read — and it prunes candidates by their keys after the read.
	beyond := func(minDist float64) bool {
		return acc.full() && minDist > acc.bound()
	}
	b.tree.NearestLeavesTallied(pt, &sc.tally, beyond, func(n *rtree.Node, minDist float64) bool {
		// The node is this browse's scratch: narrow it in place.
		kept := sc.survivors(n.Entries, pt, &acc)
		if len(kept) == 0 {
			return true
		}
		for i, view := range b.lay.views(rtree.LeafMatch{Page: n.ID, Matched: kept}, geom.EmptyRect(), TechSLMVector, sc) {
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

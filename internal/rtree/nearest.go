package rtree

import (
	"sync"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// nnItem is one pending subtree of the incremental nearest-neighbor
// traversal: a node page together with the optimistic distance bound of its
// MBR. seq breaks distance ties deterministically (insertion order), so the
// visit order never depends on heap internals.
type nnItem struct {
	child disk.PageID
	dist  float64
	seq   int
}

// nnHeap is a binary min-heap over (dist, seq), typed so no item is boxed.
type nnHeap []nnItem

func (a nnItem) less(b nnItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.seq < b.seq
}

func (h *nnHeap) push(it nnItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 && it.less(s[(i-1)/2]) {
		s[i] = s[(i-1)/2]
		i = (i - 1) / 2
	}
	s[i] = it
	*h = s
}

func (h *nnHeap) pop() nnItem {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	i := 0
	for c := 1; c < len(s); c = 2*i + 1 {
		if c+1 < len(s) && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// NearestLeaves visits the data pages of the tree in ascending order of
// MinDist(pt, page MBR) — the best-first incremental nearest-neighbor
// traversal of Hjaltason and Samet [HS95], at data-page granularity: a
// priority queue holds subtrees keyed by the optimistic distance of their
// MBR, and the nearest subtree is expanded first. fn receives each surfacing
// data page together with its bound; returning false stops the browse.
//
// stop, if non-nil, is consulted with a popped page's bound BEFORE the page
// is read: distances pop in nondecreasing order, so a monotone predicate
// ("k answers found and minDist exceeds the k-th exact distance") ends the
// browse without charging the I/O of a page that cannot contribute. fn's
// return value remains a generic early exit for non-monotone conditions.
//
// Surfacing whole data pages (rather than single entries) lets the cluster
// organization batch the object fetches of one page into a single unit
// access, and the nondecreasing bound gives callers the standard k-NN
// termination rule: once k exact answers are closer than the next page's
// MinDist, no better answer can exist. Node reads charge I/O like any
// traversal.
//
// The node fn receives is the browse's scratch, refilled for every data page:
// it and its entry list are only valid until fn returns, and fn may edit them
// in place.
func (t *Tree) NearestLeaves(pt geom.Point, stop func(minDist float64) bool, fn func(n *Node, minDist float64) bool) {
	t.NearestLeavesTallied(pt, nil, stop, fn)
}

// NearestLeavesTallied is NearestLeaves with its node reads tallied in tl, if
// any.
func (t *Tree) NearestLeavesTallied(pt geom.Point, tl *disk.Tally, stop func(minDist float64) bool, fn func(n *Node, minDist float64) bool) {
	b := leafPool.Get().(*browse)
	t.nearestLeaves(pt, tl, stop, fn, b)
	clear(b.leaf.Entries[:cap(b.leaf.Entries)]) // a pooled node must not keep pages alive
	b.leaf.page = nil
	leafPool.Put(b)
}

// browse is the memory NearestLeaves recycles across browses through
// leafPool, so a browse allocates nothing per node read or data page: the
// data-page node handed to fn, the priority queue, and the page header a
// node read fills on a miss.
type browse struct {
	leaf  Node
	queue nnHeap
	page  [1][]byte
}

var leafPool = sync.Pool{New: func() any { return new(browse) }}

func (t *Tree) nearestLeaves(pt geom.Point, tl *disk.Tally, stop func(minDist float64) bool, fn func(n *Node, minDist float64) bool, b *browse) {
	h := &b.queue
	*h = append((*h)[:0], nnItem{child: t.root})
	seq := 1
	for len(*h) > 0 {
		it := h.pop()
		if stop != nil && stop(it.dist) {
			return
		}
		page := t.buf.GetTallied(it.child, tl, b.page[:])
		c := t.cursor(it.child, page)
		if c.level == 0 {
			t.decodeInto(&b.leaf, it.child, page)
			if !fn(&b.leaf, it.dist) {
				return
			}
			continue
		}
		for r, ok := c.next(); ok; r, ok = c.next() {
			h.push(nnItem{child: c.child(), dist: r.MinDist(pt), seq: seq})
			seq++
		}
	}
}

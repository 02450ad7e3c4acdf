package rtree

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// Insert adds a leaf entry with rectangle r and the given payload and
// returns the data page the entry was placed on. The returned page is only
// meaningful as a stable home of the entry when leaf reinserts are disabled
// (cluster organization); with reinserts enabled a later forced reinsertion
// may move the entry.
func (t *Tree) Insert(r geom.Rect, payload []byte) disk.PageID {
	if !r.Valid() {
		panic(fmt.Sprintf("rtree: Insert of invalid rect %v", r))
	}
	if !t.cfg.VariableLeaf && len(payload) > payloadSize {
		panic(fmt.Sprintf("rtree: payload of %d bytes exceeds fixed slot of %d",
			len(payload), payloadSize))
	}
	if t.cfg.VariableLeaf && rectSize+varLenSize+len(payload) > disk.PageSize-nodeHeaderSize {
		panic(fmt.Sprintf("rtree: payload of %d bytes exceeds one page", len(payload)))
	}

	queue := append(t.queue[:0], pending{e: Entry{Rect: r, Payload: payload}, level: 0})
	reinserted := make(map[int]bool)
	var landed disk.PageID
	for k := 0; k < len(queue); k++ {
		id := t.insertOne(queue[k].e, queue[k].level, k == 0, reinserted, &queue)
		if k == 0 {
			landed = id
		}
	}
	clear(queue) // the tree's queue must not keep pages alive
	t.queue = queue[:0]
	t.size++
	return landed
}

// pending is an entry waiting to be inserted at a level.
type pending struct {
	e     Entry
	level int
}

// insertOne performs a full root-to-level descent, places e, and resolves
// overflow bottom-up along the descent path. Entries evicted by a forced
// reinsert are appended to *removed for the caller to re-insert.
func (t *Tree) insertOne(e Entry, level int, fresh bool, reinserted map[int]bool,
	removed *[]pending) disk.PageID {

	path := t.choosePath(e.Rect, level)
	leafIdx := len(path) - 1
	target := path[leafIdx].node
	target.Entries = append(target.Entries, e)
	landed := target.ID

	force := false
	if level == 0 && fresh && t.cfg.OnLeafInsert != nil {
		force = t.cfg.OnLeafInsert(target.ID, e)
	}
	t.writeNodeIfFits(target)
	t.adjustPathRects(path)

	// Resolve overflow bottom-up. Splitting a node adds an entry to its
	// parent, which may overflow in turn.
	for i := leafIdx; i >= 0; i-- {
		n := path[i].node
		overfull := t.overfull(n)
		forceHere := force && i == leafIdx
		if !overfull && !forceHere {
			continue
		}
		allowReinsert := overfull && !forceHere &&
			!(n.Level == 0 && t.cfg.DisableLeafReinsert) &&
			i > 0 && // never reinsert from the root
			!reinserted[n.Level]
		if allowReinsert {
			reinserted[n.Level] = true
			*removed = t.evictForReinsert(n, *removed)
			t.writeNode(n)
			t.adjustPathRects(path[:i+1])
			break // node no longer overfull; nothing propagates up
		}
		t.splitAt(path, i)
	}
	return landed
}

// adjustPathRects recomputes the parent entry rectangles along the path,
// bottom-up, writing changed nodes.
func (t *Tree) adjustPathRects(path []pathElem) {
	for i := len(path) - 1; i >= 1; i-- {
		child := path[i].node
		parent := path[i-1].node
		nr := child.Rect()
		if parent.Entries[path[i].entryIdx].Rect != nr {
			parent.Entries[path[i].entryIdx].Rect = nr
			t.writeNodeIfFits(parent)
		}
	}
}

// evictForReinsert removes the reinsertFraction of entries whose rectangle
// centers lie farthest from the center of the node's MBR ([BKSS90] forced
// reinsert) and appends them to removed, farthest first, at the node's level.
// The node keeps the rest in the same stable order by descending distance.
func (t *Tree) evictForReinsert(n *Node, removed []pending) []pending {
	p := int(reinsertFraction * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	center := n.Rect().Center()
	slices.SortStableFunc(n.Entries, func(a, b Entry) int {
		return cmp.Compare(b.Rect.Center().Dist2(center), a.Rect.Center().Dist2(center))
	})
	for _, e := range n.Entries[:p] {
		removed = append(removed, pending{e: e, level: n.Level})
	}
	n.Entries = slices.Delete(n.Entries, 0, p)
	// Variable leaves: the count-based fraction may not free enough bytes;
	// keep evicting the farthest entries until the node fits.
	for t.overfull(n) && len(n.Entries) > 1 {
		removed = append(removed, pending{e: n.Entries[0], level: n.Level})
		n.Entries = slices.Delete(n.Entries, 0, 1)
	}
	return removed
}

// splitAt splits path[i].node and installs the new siblings in the parent
// (growing the tree at the root). The path above i stays valid; the parent
// may now be overfull, which the caller's loop resolves. The usual result is
// exactly two nodes; only variable leaves with near-page-size payloads can
// require more (no two-way byte partition exists).
func (t *Tree) splitAt(path []pathElem, i int) {
	n := path[i].node
	parts := t.splitNodeMulti(n) // parts[0] == n
	for _, p := range parts {
		t.writeNode(p)
	}
	if n.Level == 0 && t.cfg.OnLeafSplit != nil {
		if len(parts) != 2 {
			panic("rtree: multi-way leaf split with a cluster organization attached")
		}
		t.cfg.OnLeafSplit(n.ID, parts[1].ID, n.Entries, parts[1].Entries)
	}

	if i == 0 {
		// Root split: grow the tree by one level.
		newRoot := &Node{ID: t.allocPage(n.Level + 1), Level: n.Level + 1}
		for _, p := range parts {
			newRoot.Entries = append(newRoot.Entries, Entry{Rect: p.Rect(), Child: p.ID})
		}
		t.root = newRoot.ID
		t.height++
		t.writeNode(newRoot)
		return
	}
	parent := path[i-1].node
	parent.Entries[path[i].entryIdx].Rect = n.Rect()
	for _, p := range parts[1:] {
		parent.Entries = append(parent.Entries, Entry{Rect: p.Rect(), Child: p.ID})
	}
	t.writeNodeIfFits(parent)
	t.adjustPathRects(path[:i])
}

// splitNodeMulti splits n (in place) and returns all resulting nodes,
// n first. It re-splits any part that is still overfull, which can only
// happen for variable leaves.
func (t *Tree) splitNodeMulti(n *Node) []*Node {
	out := []*Node{n, t.splitNode(n)}
	for i := 0; i < len(out); i++ {
		for t.overfull(out[i]) && len(out[i].Entries) > 1 {
			out = append(out, t.splitNode(out[i]))
		}
	}
	return out
}

// splitNode distributes the entries of n onto n and a fresh sibling using
// the R* split chosen by chooseSplit.
func (t *Tree) splitNode(n *Node) *Node {
	sc := splitScratches.Get().(*splitScratch)
	defer splitScratches.Put(sc)
	order, k := t.chooseSplit(n, sc)
	right := &Node{ID: t.allocPage(n.Level), Level: n.Level, Entries: pick(n.Entries, order[k:])}
	n.Entries = pick(n.Entries, order[:k])
	return right
}

// pick returns a new slice of the entries at the given positions.
func pick(entries []Entry, at []int) []Entry {
	out := make([]Entry, len(at))
	for i, j := range at {
		out[i] = entries[j]
	}
	return out
}

// chooseSplit picks the R* split of n: the split axis by minimal margin sum,
// then the distribution by minimal overlap (ties: minimal total area). For
// variable leaves, distributions whose halves exceed the page byte budget are
// rejected; if all candidates are rejected the bytes-balanced distribution
// is used. It returns the chosen order as positions in n.Entries — memory of
// sc, valid until sc is used again — and the cut: the halves are order[:k]
// and order[k:].
func (t *Tree) chooseSplit(n *Node, sc *splitScratch) (order []int, k int) {
	count := len(n.Entries)
	m := int(minFillRatio * float64(count))
	if m < 1 {
		m = 1
	}
	if count < 2 {
		panic(fmt.Sprintf("rtree: splitting node %d with %d entries", n.ID, count))
	}
	if m > count/2 {
		m = count / 2
	}

	bestAxis, bestMargin := 0, -1.0
	for axis := 0; axis < 2; axis++ {
		margin := 0.0
		for s := 2 * axis; s < 2*axis+2; s++ {
			pre, suf := sc.groups(n.Entries, sc.sort(n.Entries, s))
			for k := m; k <= count-m; k++ {
				margin += pre[k].Margin() + suf[k].Margin()
			}
		}
		if bestMargin < 0 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	best := -1
	var bestOverlap, bestArea float64
	var bestFits bool
	for s := 2 * bestAxis; s < 2*bestAxis+2; s++ {
		pre, suf := sc.groups(n.Entries, sc.orders[s])
		for cut := m; cut <= count-m; cut++ {
			lr, rr := pre[cut], suf[cut]
			overlap, area := lr.OverlapArea(rr), lr.Area()+rr.Area()
			fits := t.splitFits(n.Level, n.Entries, sc.orders[s], cut)
			if best < 0 || (fits && !bestFits) ||
				(fits == bestFits && (overlap < bestOverlap || (overlap == bestOverlap && area < bestArea))) {
				best, bestOverlap, bestArea, bestFits = s, overlap, area, fits
				k = cut
			}
		}
	}
	if !bestFits {
		// Variable leaves: fall back to the byte-balanced cut on the best
		// axis's min-sort.
		best = 2 * bestAxis
		k = t.byteBalancedCut(n.Level, n.Entries, sc.orders[best])
	}
	return sc.orders[best], k
}

// splitScratch is chooseSplit's working memory.
type splitScratch struct {
	// orders are the four candidate orders of the R* split, as positions in
	// the node: by MinX, MaxX, MinY and MaxY — axis a's two are 2a and 2a+1.
	orders [4][]int
	// key is the sort key of every entry while one order is sorted.
	key []float64
	// pre[k] and suf[k] are the MBRs of an order's first k entries and of
	// the rest.
	pre, suf []geom.Rect
}

// splitScratches recycles splitScratch between splits, so that a split
// allocates nothing but the two halves it hands out. A pool, not a field of
// the Tree: the memory is needed only while a node splits, and the collector
// can take it back from a tree that stopped changing.
var splitScratches = sync.Pool{New: func() any { return new(splitScratch) }}

// sort computes order s of entries. Any stable sort by the same key yields
// the same order.
func (sc *splitScratch) sort(entries []Entry, s int) []int {
	key, order := resize(sc.key, len(entries)), sc.orders[s][:0]
	for i := range entries {
		r := &entries[i].Rect
		key[i] = [4]float64{r.MinX, r.MaxX, r.MinY, r.MaxY}[s]
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key[a], key[b]) })
	sc.key, sc.orders[s] = key, order
	return order
}

// groups computes the group MBRs of every cut of order in one prefix and one
// suffix pass. A prefix is the same left-to-right Union fold as a per-cut
// recomputation; a suffix folds the same rectangles in another order, which
// changes no bit, because min and max (±0 included) are exact, associative
// and commutative.
func (sc *splitScratch) groups(entries []Entry, order []int) (pre, suf []geom.Rect) {
	n := len(order)
	pre, suf = resize(sc.pre, n+1), resize(sc.suf, n+1)
	pre[0], suf[n] = geom.EmptyRect(), geom.EmptyRect()
	for k := 1; k <= n; k++ {
		pre[k] = pre[k-1].Union(entries[order[k-1]].Rect)
	}
	for k := n - 1; k >= 0; k-- {
		suf[k] = suf[k+1].Union(entries[order[k]].Rect)
	}
	sc.pre, sc.suf = pre, suf
	return pre, suf
}

// resize returns a slice of length n, reusing buf's memory when it is large
// enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// splitFits reports whether both halves of the distribution fit their pages.
func (t *Tree) splitFits(level int, entries []Entry, order []int, k int) bool {
	if level > 0 || !t.cfg.VariableLeaf {
		return true // fixed entries: any k between m and count-m fits
	}
	return nodeHeaderSize+t.orderBytes(level, entries, order[:k]) <= disk.PageSize &&
		nodeHeaderSize+t.orderBytes(level, entries, order[k:]) <= disk.PageSize
}

// byteBalancedCut returns the k that best balances the serialized bytes of
// the two halves.
func (t *Tree) byteBalancedCut(level int, entries []Entry, order []int) int {
	total := t.orderBytes(level, entries, order)
	bestK, bestDiff := 1, -1
	acc := 0
	for k := 1; k < len(order); k++ {
		acc += t.entryBytes(level, &entries[order[k-1]])
		diff := acc - (total - acc)
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			bestK, bestDiff = k, diff
		}
	}
	return bestK
}

// orderBytes sums the on-page sizes of the entries at the given positions.
func (t *Tree) orderBytes(level int, entries []Entry, at []int) int {
	b := 0
	for _, i := range at {
		b += t.entryBytes(level, &entries[i])
	}
	return b
}

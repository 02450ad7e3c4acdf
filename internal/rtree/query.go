package rtree

import (
	"fmt"
	"sync"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// Search invokes fn for every leaf entry whose rectangle intersects w, in
// tree traversal order; fn returning false stops the search. This is the
// filter step of the window query (paper section 4.2.2). Pages are scanned
// in place: the rectangle test runs on the encoded entry, and only a
// qualifying entry is surfaced, its payload aliasing the page.
func (t *Tree) Search(w geom.Rect, fn func(e Entry) bool) {
	t.searchNode(t.root, w, fn)
}

func (t *Tree) searchNode(id disk.PageID, w geom.Rect, fn func(e Entry) bool) bool {
	c := t.cursor(id, t.buf.Get(id))
	for r, ok := c.next(); ok; r, ok = c.next() {
		if !r.Intersects(w) {
			continue
		}
		if c.level > 0 {
			if !t.searchNode(c.child(), w, fn) {
				return false
			}
		} else if !fn(Entry{Rect: r, Payload: c.payload()}) {
			return false
		}
	}
	return true
}

// LeafMatch describes the qualifying entries of one data page for a window
// query. Rect is the region of the whole data page (the region of the
// attached cluster unit in the cluster organization): the parent entry's
// rectangle, equal to the page's MBR (CheckInvariants), so the page's
// entries are never unioned to find it — only a root that is itself a leaf
// has no parent entry and is. Matched holds the entries whose rectangles
// intersect the window, payloads aliasing the page. Matched is the search's
// scratch: it is only valid until fn returns.
type LeafMatch struct {
	Page    disk.PageID
	Rect    geom.Rect
	Matched []Entry
}

// searchScratch is the memory SearchLeaves recycles across searches through
// matchPool, so a search allocates nothing per node read, data page or entry:
// the Matched entries and the page header a node read fills on a miss.
type searchScratch struct {
	matched []Entry
	page    [1][]byte
}

var matchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// SearchLeaves invokes fn once per data page that contains at least one
// qualifying entry; fn returning false stops the search. The cluster-read
// techniques operate on this per-data-page granularity. The node reads are
// tallied in tl, if any.
func (t *Tree) SearchLeaves(w geom.Rect, tl *disk.Tally, fn func(lm LeafMatch) bool) {
	s := matchPool.Get().(*searchScratch)
	t.searchLeaves(t.root, geom.Rect{}, w, tl, s, fn)
	clear(s.matched[:cap(s.matched)]) // a pooled scratch must not keep pages alive
	matchPool.Put(s)
}

// searchLeaves searches the subtree of node id, whose region is region — the
// rectangle of its parent entry; unused for the root.
func (t *Tree) searchLeaves(id disk.PageID, region, w geom.Rect, tl *disk.Tally, s *searchScratch, fn func(lm LeafMatch) bool) bool {
	c := t.cursor(id, t.buf.GetTallied(id, tl, s.page[:]))
	if c.level > 0 {
		for r, ok := c.next(); ok; r, ok = c.next() {
			if r.Intersects(w) && !t.searchLeaves(c.child(), r, w, tl, s, fn) {
				return false
			}
		}
		return true
	}
	m := s.matched[:0]
	for r, ok := c.next(); ok; r, ok = c.next() {
		if r.Intersects(w) {
			m = append(m, Entry{Rect: r, Payload: c.payload()})
		}
	}
	s.matched = m
	if len(m) == 0 {
		return true
	}
	if id == t.root {
		region = t.pageMBR(id, c.buf)
	}
	return fn(LeafMatch{Page: id, Rect: region, Matched: m})
}

// pageMBR unions the entry rectangles of an encoded node page in place, as
// Node.Rect does for a decoded one.
func (t *Tree) pageMBR(id disk.PageID, buf []byte) geom.Rect {
	mbr, c := geom.EmptyRect(), t.cursor(id, buf)
	for r, ok := c.next(); ok; r, ok = c.next() {
		mbr = mbr.Union(r)
	}
	return mbr
}

// WalkNodes invokes fn for every node of the tree, parents before children;
// fn returning false prunes the subtree. It charges I/O like any traversal
// and is used by statistics and integrity checks.
func (t *Tree) WalkNodes(fn func(n *Node) bool) {
	t.walk(t.root, fn)
}

func (t *Tree) walk(id disk.PageID, fn func(n *Node) bool) {
	n := t.ReadNode(id)
	if !fn(n) {
		return
	}
	if n.Level == 0 {
		return
	}
	for i := range n.Entries {
		t.walk(n.Entries[i].Child, fn)
	}
}

// CheckInvariants walks the whole tree and verifies the R*-tree structural
// invariants: parent rectangles exactly bound their children, levels
// decrease by one along edges, leaf level is 0, and all nodes except the
// root hold at least one entry. It returns the number of leaf entries seen.
// Intended for tests.
func (t *Tree) CheckInvariants() (int, error) {
	return t.checkNode(t.root, t.height-1, true)
}

func (t *Tree) checkNode(id disk.PageID, wantLevel int, isRoot bool) (int, error) {
	n := t.ReadNode(id)
	if n.Level != wantLevel {
		return 0, fmt.Errorf("node %d: level %d, want %d", id, n.Level, wantLevel)
	}
	if !isRoot && len(n.Entries) == 0 {
		return 0, fmt.Errorf("node %d: empty non-root node", id)
	}
	if n.Level == 0 {
		return len(n.Entries), nil
	}
	var total int
	for i := range n.Entries {
		e := &n.Entries[i]
		child := t.ReadNode(e.Child)
		if cr := child.Rect(); cr != e.Rect {
			return 0, fmt.Errorf("node %d entry %d: rect %v, child MBR %v", id, i, e.Rect, cr)
		}
		sub, err := t.checkNode(e.Child, wantLevel-1, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

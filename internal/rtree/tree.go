package rtree

import (
	"bytes"
	"math"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/pagefile"
)

// The tree's parameters are [BKSS90]'s, as the paper uses them (section 5.1).
const (
	// DefaultEntrySize is the paper's entry size: MBR plus pointer
	// information, 46 bytes — the on-page size of every directory and fixed
	// leaf entry.
	DefaultEntrySize = 46
	// maxEntries is M, the node capacity: (4096-2)/46 = 89 entries.
	maxEntries = (disk.PageSize - nodeHeaderSize) / DefaultEntrySize
	// minFillRatio is m/M, 40 %.
	minFillRatio = 0.4
	// minEntries is m = int(minFillRatio·M) = 35, the fill below which
	// deletion condenses a node.
	minEntries = maxEntries * 4 / 10
	// reinsertFraction is the share of an overfull node's entries a forced
	// reinsert removes, 30 %.
	reinsertFraction = 0.3
	// payloadSize is the fixed payload of a leaf entry, 14 bytes.
	payloadSize = DefaultEntrySize - rectSize
)

// Config holds what the organizations set differently. The zero value is the
// plain R*-tree.
type Config struct {
	// DisableLeafReinsert turns off forced reinsertion on the data-page
	// level (cluster organization, paper section 4.2.1).
	DisableLeafReinsert bool
	// DisableLeafCondense keeps underfull data pages in place on Delete:
	// a data page is only condensed (freed) once it is empty. The cluster
	// organization requires this for the same reason it disables leaf
	// reinsertion — relocating a data-page entry means copying a complete
	// spatial object between cluster units. The resulting under-occupied
	// pages are the clustering decay that the online reclusterer repairs.
	DisableLeafCondense bool
	// VariableLeaf switches leaf capacity to a byte budget; leaf entries
	// then carry variable-size payloads (primary organization).
	VariableLeaf bool

	// OnLeafInsert, if set, is invoked after an entry is placed in a data
	// page and before overflow treatment. Returning true forces a split of
	// that data page (cluster unit exceeded Smax).
	OnLeafInsert func(leaf disk.PageID, e Entry) (forceSplit bool)
	// OnLeafSplit, if set, is invoked after a data page split distributed
	// the entries of page left onto left and right.
	OnLeafSplit func(left, right disk.PageID, leftEntries, rightEntries []Entry)
}

// Tree is a paged R*-tree. Mutations (Insert, Delete, bulk load) are not
// safe for concurrent use, but once construction is finished the read path
// (Search, SearchLeaves, ReadNode, DecodeNode, the Is*Page
// bookkeeping) is safe for any number of concurrent readers: node decoding
// is pure, and all page traffic goes through the buffer manager.
type Tree struct {
	cfg   Config
	buf   *buffer.Manager
	alloc *pagefile.Allocator

	root   disk.PageID
	height int // number of levels; 1 = root is a leaf
	size   int // number of leaf entries

	leafPages int
	dirPages  int

	// pageLevels records the level of every live node page, so callers can
	// distinguish directory from data pages (e.g. for selective buffer
	// eviction) without reading them.
	pageLevels map[disk.PageID]int

	// The mutation path's scratch, owned by the tree so a mutation allocates
	// only the pages it changes. nodes[k] holds the node at depth k of the
	// current descent, and path the descent; both are overwritten by the
	// next descent, and nodes never outgrows the height. queue holds an
	// Insert's entries still to place, page is what writeNode marshals into.
	nodes []*Node
	path  []pathElem
	queue []pending
	page  []byte
}

// newShell builds a tree with no nodes yet. New allocates a fresh root into
// it; Restore fills it from a snapshot image.
func newShell(buf *buffer.Manager, alloc *pagefile.Allocator, cfg Config) *Tree {
	return &Tree{cfg: cfg, buf: buf, alloc: alloc, pageLevels: make(map[disk.PageID]int)}
}

// New creates an empty tree whose nodes live on pages allocated from alloc
// and are accessed through buf.
func New(buf *buffer.Manager, alloc *pagefile.Allocator, cfg Config) *Tree {
	t := newShell(buf, alloc, cfg)
	rootNode := &Node{ID: t.allocPage(0), Level: 0}
	t.root = rootNode.ID
	t.height = 1
	t.writeNode(rootNode)
	return t
}

// MaxEntries returns M, the node capacity in entries.
func (t *Tree) MaxEntries() int { return maxEntries }

// Len returns the number of stored leaf entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the page of the root node.
func (t *Tree) Root() disk.PageID { return t.root }

// LeafPages and DirPages return the page counts per level class.
func (t *Tree) LeafPages() int { return t.leafPages }

// DirPages returns the number of directory pages.
func (t *Tree) DirPages() int { return t.dirPages }

// Buffer returns the buffer manager the tree reads through (shared with the
// organization model).
func (t *Tree) Buffer() *buffer.Manager { return t.buf }

func (t *Tree) allocPage(level int) disk.PageID {
	ext := t.alloc.Alloc(1)
	if level == 0 {
		t.leafPages++
	} else {
		t.dirPages++
	}
	t.pageLevels[ext.Start] = level
	return ext.Start
}

func (t *Tree) freePage(id disk.PageID, level int) {
	t.buf.Drop(id)
	t.alloc.Free(pagefile.Extent{Start: id, Pages: 1})
	if level == 0 {
		t.leafPages--
	} else {
		t.dirPages--
	}
	delete(t.pageLevels, id)
}

// IsDirPage reports whether page id holds a live directory node of this
// tree. It is pure bookkeeping and charges no I/O.
func (t *Tree) IsDirPage(id disk.PageID) bool {
	level, ok := t.pageLevels[id]
	return ok && level > 0
}

// IsNodePage reports whether page id holds any live node of this tree.
func (t *Tree) IsNodePage(id disk.PageID) bool {
	_, ok := t.pageLevels[id]
	return ok
}

// ReadNode loads the node stored on page id, charging buffer/disk cost.
func (t *Tree) ReadNode(id disk.PageID) *Node {
	return t.unmarshalNode(id, t.buf.Get(id))
}

// DecodeNode deserializes a node from page content obtained elsewhere (e.g.
// through a different buffer manager during join processing).
func (t *Tree) DecodeNode(id disk.PageID, page []byte) *Node {
	return t.unmarshalNode(id, page)
}

// writeNode buffers n's page. It marshals into the tree's own page, and when
// the bytes equal the page n was decoded from (whose rest is zero) it hands
// that same slice back to Put — the same dirty mark and LRU touch a fresh
// page gets, for no allocation. Only a node that changed is cloned into a
// fresh page of its used length, so a buffered page is never written to.
func (t *Tree) writeNode(n *Node) {
	if t.page == nil {
		t.page = make([]byte, disk.PageSize)
	}
	used := t.marshalInto(t.page, n)
	if old := n.page; !bytes.HasPrefix(old, used) || len(bytes.TrimRight(old[len(used):], "\x00")) != 0 {
		n.page = bytes.Clone(used)
	}
	t.buf.Put(n.ID, n.page)
}

// scratchNode decodes page, the content of node id, into the tree-owned node
// of depth k. The node is valid until the next descent reaches depth k.
func (t *Tree) scratchNode(k int, id disk.PageID, page []byte) *Node {
	for len(t.nodes) <= k {
		t.nodes = append(t.nodes, &Node{Entries: make([]Entry, 0, maxEntries+1)})
	}
	t.decodeInto(t.nodes[k], id, page)
	return t.nodes[k]
}

// readScratch reads node id into the tree-owned node of depth k.
func (t *Tree) readScratch(k int, id disk.PageID) *Node {
	return t.scratchNode(k, id, t.buf.Get(id))
}

// writeNodeIfFits persists n unless it is transiently overfull; overfull
// nodes are always split (or trimmed by a reinsert) before the insertion
// completes, and the resolution writes the resulting nodes.
func (t *Tree) writeNodeIfFits(n *Node) {
	if !t.overfull(n) {
		t.writeNode(n)
	}
}

// Flush writes all dirty tree pages back to disk.
func (t *Tree) Flush() { t.buf.Flush() }

// Release frees every node page of the tree back to the allocator and drops
// the buffered copies, using the page-level bookkeeping (no I/O is charged —
// deallocation is metadata work). The tree must not be used afterwards; it
// exists so a full rebuild can reclaim the old tree's pages.
func (t *Tree) Release() {
	ids := make([]disk.PageID, 0, len(t.pageLevels))
	for id := range t.pageLevels {
		ids = append(ids, id)
	}
	for _, id := range ids {
		t.freePage(id, t.pageLevels[id])
	}
	t.root = disk.InvalidPage
	t.height = 0
	t.size = 0
}

// pathElem records one step of a root-to-node descent.
type pathElem struct {
	node     *Node
	entryIdx int // index in the parent's entry list pointing at node; -1 for root
}

// choosePath descends from the root to the given level, always following the
// subtree chosen by the R* ChooseSubtree criterion for rectangle r, and
// returns the nodes along the way (path[0] is the root): the tree's scratch,
// valid until the next descent.
func (t *Tree) choosePath(r geom.Rect, level int) []pathElem {
	path := append(t.path[:0], pathElem{node: t.readScratch(0, t.root), entryIdx: -1})
	for {
		cur := path[len(path)-1].node
		if cur.Level == level {
			t.path = path
			return path
		}
		idx := t.chooseSubtree(cur, r)
		child := t.readScratch(len(path), cur.Entries[idx].Child)
		path = append(path, pathElem{node: child, entryIdx: idx})
	}
}

// chooseSubtree picks the entry of dir node n to descend into for rectangle
// r, per [BKSS90]: for nodes whose children are leaves, minimize overlap
// enlargement (ties: area enlargement, then area); higher up, minimize area
// enlargement (ties: area). Remaining ties go to the lowest index.
//
// The overlap criterion is evaluated exactly, in index order, yet close to
// linear in the node size instead of quadratic. Entry i scores
// Σ_{j≠i} area(grown∩e_j) − area(old∩e_j), where old is its rectangle and
// grown = old ∪ r. Because old ⊆ grown and rounding is monotone, every term
// is ≥ 0 in floating point too, so the partial sums only grow. That licenses
// three shortcuts, none of which changes a single bit of a winning score:
//   - an entry that contains r (grown == old) scores exactly 0, the least
//     possible, without a loop — and one such entry bounds all the others;
//   - a sibling grown does not overlap with positive width and height adds
//     exactly ±0 (the sum starts at +0, which a zero term cannot change), so
//     four comparisons skip it;
//   - once a partial sum exceeds the best score found so far the entry cannot
//     win (a tie still needs ==), so its summation stops.
//
// [BKSS90]'s further shortcut — score only the 32 entries of least area
// enlargement — is an approximation: it picks other subtrees, which changes
// the tree and with it every modelled figure, so it is not used.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	if len(n.Entries) == 0 {
		panic("rtree: chooseSubtree on empty node")
	}
	if n.Level == 1 {
		return leastOverlapEnlargement(n.Entries, r)
	}
	best := 0
	bestEnl, bestArea := n.Entries[0].Rect.Enlargement(r), n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// leastOverlapEnlargement is chooseSubtree's criterion for nodes whose
// children are leaves; see there for why it is exact.
func leastOverlapEnlargement(entries []Entry, r geom.Rect) int {
	// bound is a score some entry achieves, so an entry scoring above it
	// cannot be the first of least score.
	bound := math.Inf(1)
	for i := range entries {
		if entries[i].Rect.ContainsRect(r) {
			bound = 0
			break
		}
	}
	best := -1
	var bestOverlap, bestEnl, bestArea float64
	for i := range entries {
		old := entries[i].Rect
		grown := old.Union(r)
		var ov float64
		if grown != old {
			var within bool
			if ov, within = overlapGrowth(entries, i, old, grown, bound); !within {
				continue
			}
		}
		area := old.Area()
		enl := grown.Area() - area // old.Enlargement(r)
		if best < 0 || ov < bestOverlap ||
			(ov == bestOverlap && enl < bestEnl) ||
			(ov == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
			bound = ov
		}
	}
	return best
}

// overlapGrowth sums, in index order, how much the overlap of entry i with
// each sibling grows when its rectangle grows from old to grown. Siblings
// grown meets in no positive area contribute an exact zero and are skipped;
// within is false, and the sum abandoned, as soon as it exceeds bound.
func overlapGrowth(entries []Entry, i int, old, grown geom.Rect, bound float64) (sum float64, within bool) {
	for j := range entries {
		e := &entries[j].Rect
		if j == i || e.MaxX <= grown.MinX || e.MinX >= grown.MaxX || e.MaxY <= grown.MinY || e.MinY >= grown.MaxY {
			continue
		}
		sum += overlapArea(grown, *e) - overlapArea(old, *e)
		if sum > bound {
			return sum, false
		}
	}
	return sum, true
}

// overlapArea is geom.Rect.OverlapArea, Intersection(b).Area(), in a form the
// compiler inlines: the builtin min and max order ±0 exactly as math.Min and
// math.Max do, and the emptiness test is Area's, so the bits are the same.
func overlapArea(a, b geom.Rect) float64 {
	x0, x1 := max(a.MinX, b.MinX), min(a.MaxX, b.MaxX)
	y0, y1 := max(a.MinY, b.MinY), min(a.MaxY, b.MaxY)
	if x0 > x1 || y0 > y1 {
		return 0
	}
	return (x1 - x0) * (y1 - y0)
}

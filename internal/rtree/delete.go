package rtree

import (
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// Delete removes the first leaf entry whose rectangle equals r and whose
// payload satisfies match (nil matches any payload). It returns true if an
// entry was removed. Underfull nodes are condensed: their remaining entries
// are removed and re-inserted at their original level, as in [Gut84].
func (t *Tree) Delete(r geom.Rect, match func(payload []byte) bool) bool {
	if match == nil {
		match = func([]byte) bool { return true }
	}
	idx, found := t.findEntry(t.root, 0, r, match)
	if !found {
		return false
	}
	path := t.path
	path[0].entryIdx = -1
	leaf := path[len(path)-1].node
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	t.writeNode(leaf)
	t.size--

	type orphan struct {
		e     Entry
		level int
	}
	var orphans []orphan

	// Condense bottom-up: drop underfull nodes, collecting their entries.
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i].node
		parent := path[i-1].node
		if t.shouldCondense(n) {
			for _, e := range n.Entries {
				orphans = append(orphans, orphan{e: e, level: n.Level})
			}
			parent.Entries = append(parent.Entries[:path[i].entryIdx],
				parent.Entries[path[i].entryIdx+1:]...)
			t.freePage(n.ID, n.Level)
			t.writeNode(parent)
			// Fix entryIdx of the (former) sibling recorded deeper in the
			// path — none: we walk bottom-up, deeper elements already
			// processed. Parent index shifts only matter for path[i],
			// which we just consumed.
			continue
		}
		parent.Entries[path[i].entryIdx].Rect = n.Rect()
		t.writeNode(parent)
	}

	// Shrink the root while it is a directory node with a single child.
	for t.height > 1 {
		root := t.readScratch(0, t.root)
		if len(root.Entries) != 1 || root.Level == 0 {
			break
		}
		child := root.Entries[0].Child
		t.freePage(root.ID, root.Level)
		t.root = child
		t.height--
		if len(t.nodes) > t.height {
			clear(t.nodes[t.height:])
			t.nodes = t.nodes[:t.height]
		}
	}

	// Re-insert orphans at their original levels.
	for _, o := range orphans {
		t.reinsertEntry(o.e, o.level)
	}
	return true
}

// shouldCondense reports whether deletion's condense step removes node n and
// re-distributes its entries. With DisableLeafCondense, data pages stay in
// place until they are completely empty, so leaf entries (and with them the
// objects of an attached cluster unit) never migrate between data pages.
func (t *Tree) shouldCondense(n *Node) bool {
	if n.Level == 0 && t.cfg.DisableLeafCondense {
		return len(n.Entries) == 0
	}
	return t.underfull(n)
}

// reinsertEntry inserts an orphaned entry back at the given level, handling
// overflow (without forced reinsert, as is conventional during condensation).
func (t *Tree) reinsertEntry(e Entry, level int) {
	// The root shrink may have left the tree shorter than the orphan's
	// level. Grow the tree by wrapping the root until a node at that level
	// exists: this grafts the orphan's whole subtree without relocating any
	// of its entries (relocations would move objects between cluster units).
	for level >= t.height {
		oldRoot := t.readScratch(0, t.root)
		newRoot := &Node{
			ID:      t.allocPage(oldRoot.Level + 1),
			Level:   oldRoot.Level + 1,
			Entries: []Entry{{Rect: oldRoot.Rect(), Child: oldRoot.ID}},
		}
		t.root = newRoot.ID
		t.height++
		t.writeNode(newRoot)
	}
	reinserted := map[int]bool{0: true, level: true}
	var removed []pending
	t.insertOne(e, level, false, reinserted, &removed)
	for _, re := range removed {
		t.reinsertEntry(re.e, re.level)
	}
}

// findEntry looks for the entry to delete in the subtree of node id, at
// depth depth, scanning pages in place as Search does and following every
// directory entry that contains r. On success it decodes the root-to-leaf
// path, from the pages it already holds, into the tree's scratch path (with
// entryIdx each node's index within its parent; the caller sets the root's)
// and returns the entry's index in the leaf.
func (t *Tree) findEntry(id disk.PageID, depth int, r geom.Rect,
	match func([]byte) bool) (idx int, found bool) {

	page := t.buf.Get(id)
	c := t.cursor(id, page)
	for er, ok := c.next(); ok; er, ok = c.next() {
		if c.level == 0 {
			if er != r || !match(c.payload()) {
				continue
			}
			idx = c.i - 1
			t.path = resize(t.path, depth+1)
		} else {
			if !er.ContainsRect(r) {
				continue
			}
			if idx, found = t.findEntry(c.child(), depth+1, r, match); !found {
				continue
			}
			t.path[depth+1].entryIdx = c.i - 1
		}
		t.path[depth].node = t.scratchNode(depth, id, page)
		return idx, true
	}
	return 0, false
}

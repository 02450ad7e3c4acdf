package rtree

import (
	"fmt"

	"spatialcluster/internal/disk"
)

// PackLeaves bulk-loads an empty tree bottom-up from pre-grouped leaf entry
// sets (the caller chooses the grouping and its order, typically a Hilbert
// sort — static global clustering). It returns the page IDs of the created
// data pages, in input order, so an organization model can attach its
// storage (e.g. cluster units) to them. Directory levels are packed at the
// same fill as the input's largest group, preserving spatial order.
//
// PackLeaves panics if the tree is not empty or a group exceeds the node
// capacity.
func (t *Tree) PackLeaves(groups [][]Entry) []disk.PageID {
	if t.size != 0 || t.height != 1 {
		panic("rtree: PackLeaves requires an empty tree")
	}
	if len(groups) == 0 {
		return nil
	}

	// Replace the pre-allocated empty root; it becomes the first leaf.
	leafIDs := make([]disk.PageID, len(groups))
	level := make([]*Node, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			panic(fmt.Sprintf("rtree: empty bulk-load group %d", i))
		}
		n := &Node{Level: 0, Entries: append([]Entry(nil), g...)}
		if i == 0 {
			n.ID = t.root // reuse the pre-allocated root page as a leaf
		} else {
			n.ID = t.allocPage(0)
		}
		if t.overfull(n) {
			panic(fmt.Sprintf("rtree: bulk-load group %d with %d entries overflows a page",
				i, len(g)))
		}
		t.writeNode(n)
		t.size += len(g)
		leafIDs[i] = n.ID
		level[i] = n
	}

	// Pack directory levels bottom-up until one node remains. The fan-out
	// mirrors the leaf fill so the directory keeps the same utilization.
	fanout := 0
	for _, g := range groups {
		if len(g) > fanout {
			fanout = len(g)
		}
	}
	if fanout < 2 {
		fanout = 2
	}
	if fanout > maxEntries {
		fanout = maxEntries
	}
	curLevel := 0
	for len(level) > 1 {
		curLevel++
		var parents []*Node
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			p := &Node{ID: t.allocPage(curLevel), Level: curLevel}
			for _, child := range level[start:end] {
				p.Entries = append(p.Entries, Entry{Rect: child.Rect(), Child: child.ID})
			}
			t.writeNode(p)
			parents = append(parents, p)
		}
		// Avoid a single-child root chain: if only one parent was created
		// for >1 children, it becomes the root below.
		level = parents
	}
	t.root = level[0].ID
	t.height = curLevel + 1
	return leafIDs
}

package rtree

import (
	"math/rand"
	"testing"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// TestDeleteLeafCondenseDisabled: with DisableLeafCondense, data pages are
// never condensed while they hold entries, so surviving entries stay on the
// page they were placed on — the invariant the cluster organization's
// object-to-unit mapping depends on. Empty pages must still be freed.
func TestDeleteLeafCondenseDisabled(t *testing.T) {
	tr := newTestTree(t, Config{DisableLeafReinsert: true, DisableLeafCondense: true})
	rng := rand.New(rand.NewSource(11))
	type stored struct {
		r  geom.Rect
		id uint64
	}
	var all []stored
	for i := 0; i < 2500; i++ {
		r := randRect(rng)
		tr.Insert(r, payloadFor(uint64(i)))
		all = append(all, stored{r, uint64(i)})
	}
	// Record where every entry lives after construction.
	home := map[uint64]disk.PageID{}
	tr.WalkNodes(func(n *Node) bool {
		if n.Level == 0 {
			for _, e := range n.Entries {
				home[payloadID(e.Payload)] = n.ID
			}
		}
		return true
	})

	perm := rng.Perm(len(all))
	deleted := map[uint64]bool{}
	for _, i := range perm[:2300] {
		if !deleteByPayload(tr, all[i].r, payloadFor(all[i].id)) {
			t.Fatalf("delete of %d failed", all[i].id)
		}
		deleted[all[i].id] = true
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 200 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}

	leaves := 0
	tr.WalkNodes(func(n *Node) bool {
		if n.Level == 0 {
			leaves++
			if len(n.Entries) == 0 && tr.Height() > 1 {
				t.Fatalf("empty non-root leaf %d survives", n.ID)
			}
			for _, e := range n.Entries {
				id := payloadID(e.Payload)
				if deleted[id] {
					t.Fatalf("deleted entry %d still present", id)
				}
				if home[id] != n.ID {
					t.Fatalf("entry %d moved from page %d to %d", id, home[id], n.ID)
				}
			}
		}
		return true
	})
	if leaves != tr.LeafPages() {
		t.Fatalf("leaf bookkeeping: %d walked, %d counted", leaves, tr.LeafPages())
	}
}

// buildShrinkScenario hand-builds the smallest tree in which deleting one
// entry condenses a directory node while the root shrink collapses the tree
// to a single leaf, leaving a level-1 orphan above the new height:
//
//	root(2){A,B}; A(1){L1,L2}; B(1){L4}
//
// Every leaf holds exactly m entries, so deleting one from L1 condenses L1,
// then A; the root shrinks through B down to leaf L4 (height 1), and L2's
// pointer must be grafted back as an orphan at level 1 >= height.
func buildShrinkScenario(t *testing.T) (*Tree, geom.Rect, []uint64) {
	t.Helper()
	tr := newTestTree(t, Config{})
	next := uint64(1)
	mkLeaf := func(base float64) *Node {
		n := &Node{ID: tr.allocPage(0), Level: 0}
		for k := 0; k < minEntries; k++ {
			lo := base + float64(k)*0.002
			n.Entries = append(n.Entries, Entry{Rect: geom.R(lo, lo, lo+0.001, lo+0.001), Payload: payloadFor(next)})
			next++
		}
		tr.writeNode(n)
		return n
	}
	mkDir := func(level int, children ...*Node) *Node {
		n := &Node{ID: tr.allocPage(level), Level: level}
		for _, c := range children {
			n.Entries = append(n.Entries, Entry{Rect: c.Rect(), Child: c.ID})
		}
		tr.writeNode(n)
		return n
	}

	l1, l2, l4 := mkLeaf(0), mkLeaf(0.1), mkLeaf(0.8)
	a := mkDir(1, l1, l2)
	b := mkDir(1, l4)
	root := mkDir(2, a, b)
	tr.root = root.ID
	tr.height = 3
	tr.size = int(next - 1)
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatalf("scenario construction: %v", err)
	}
	var survivors []uint64
	for id := payloadID(l1.Entries[1].Payload); id < next; id++ {
		survivors = append(survivors, id)
	}
	return tr, l1.Entries[0].Rect, survivors
}

// TestDeleteGraftsOrphanAboveShrunkRoot is the regression test for orphan
// re-insertion when the root shrink leaves the tree shorter than the
// orphan's level: the subtree must be grafted by growing the tree, not by
// dissolving it (which mis-leveled its entries and moved leaf entries
// between pages).
func TestDeleteGraftsOrphanAboveShrunkRoot(t *testing.T) {
	tr, victim, survivors := buildShrinkScenario(t)
	if !deleteByPayload(tr, victim, payloadFor(1)) {
		t.Fatal("delete failed")
	}
	if n, err := tr.CheckInvariants(); err != nil || n != len(survivors) {
		t.Fatalf("invariants after graft: n=%d err=%v", n, err)
	}
	found := map[uint64]bool{}
	tr.Search(geom.R(0, 0, 1, 1), func(e Entry) bool {
		found[payloadID(e.Payload)] = true
		return true
	})
	for _, id := range survivors {
		if !found[id] {
			t.Fatalf("entry %d lost by the graft", id)
		}
	}
	if len(found) != len(survivors) {
		t.Fatalf("found %d entries, want %d", len(found), len(survivors))
	}
}

// TestDeleteGraftKeepsLeafEntriesInPlace repeats the shrink scenario with
// leaf condensation disabled and verifies no leaf entry changed its page —
// required by the cluster organization even through the graft path.
func TestDeleteGraftKeepsLeafEntriesInPlace(t *testing.T) {
	tr, victim, _ := buildShrinkScenario(t)
	tr.cfg.DisableLeafCondense = true
	home := map[uint64]disk.PageID{}
	tr.WalkNodes(func(n *Node) bool {
		if n.Level == 0 {
			for _, e := range n.Entries {
				home[payloadID(e.Payload)] = n.ID
			}
		}
		return true
	})
	if !deleteByPayload(tr, victim, payloadFor(1)) {
		t.Fatal("delete failed")
	}
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	tr.WalkNodes(func(n *Node) bool {
		if n.Level == 0 {
			for _, e := range n.Entries {
				if id := payloadID(e.Payload); home[id] != n.ID {
					t.Fatalf("leaf entry %d moved from %d to %d", id, home[id], n.ID)
				}
			}
		}
		return true
	})
}

// TestDeleteCondenseSoak mass-deletes under both condense modes across
// seeds, checking invariants and the surviving set each time.
func TestDeleteCondenseSoak(t *testing.T) {
	for _, disable := range []bool{false, true} {
		for seed := int64(0); seed < 3; seed++ {
			tr := newTestTree(t, Config{DisableLeafCondense: disable})
			rng := rand.New(rand.NewSource(seed))
			type stored struct {
				r  geom.Rect
				id uint64
			}
			var all []stored
			for i := 0; i < 800; i++ {
				r := randRect(rng)
				tr.Insert(r, payloadFor(uint64(i)))
				all = append(all, stored{r, uint64(i)})
			}
			perm := rng.Perm(len(all))
			for k, i := range perm {
				if !deleteByPayload(tr, all[i].r, payloadFor(all[i].id)) {
					t.Fatalf("disable=%v seed=%d: delete %d failed", disable, seed, all[i].id)
				}
				if k%97 == 0 {
					if _, err := tr.CheckInvariants(); err != nil {
						t.Fatalf("disable=%v seed=%d after %d deletes: %v", disable, seed, k+1, err)
					}
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("disable=%v seed=%d: %d entries remain", disable, seed, tr.Len())
			}
		}
	}
}

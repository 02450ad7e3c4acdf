package rtree

import (
	"math/rand"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/pagefile"
)

func TestTreeAccessors(t *testing.T) {
	d := disk.NewDefault()
	m := buffer.New(d, 256)
	a := pagefile.NewAllocator(d)
	tr := New(m, a, Config{})
	if tr.Buffer() != m {
		t.Fatal("Buffer accessor")
	}
	if tr.Root() == disk.InvalidPage {
		t.Fatal("Root must be valid")
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	// Page classification bookkeeping matches a walk.
	dirs, leaves := 0, 0
	tr.WalkNodes(func(n *Node) bool {
		if tr.IsDirPage(n.ID) {
			dirs++
			if n.IsLeaf() {
				t.Fatalf("leaf %d classified as directory", n.ID)
			}
		}
		if !tr.IsNodePage(n.ID) {
			t.Fatalf("node %d not classified as node page", n.ID)
		}
		if n.IsLeaf() {
			leaves++
		}
		return true
	})
	if dirs != tr.DirPages() || leaves != tr.LeafPages() {
		t.Fatalf("classification: %d/%d vs tracked %d/%d", dirs, leaves, tr.DirPages(), tr.LeafPages())
	}
	if tr.IsDirPage(999999) || tr.IsNodePage(999999) {
		t.Fatal("unknown pages must not classify")
	}

	// DecodeNode round-trips through a foreign buffer.
	other := buffer.New(d, 64)
	tr.Flush()
	root := tr.DecodeNode(tr.Root(), other.Get(tr.Root()))
	if root.Level != tr.Height()-1 {
		t.Fatalf("decoded root level %d, height %d", root.Level, tr.Height())
	}
}

func TestVariableLeafPathologicalSplit(t *testing.T) {
	// Payloads sized so that no two-way split fits a page: the tree must
	// fall back to a multi-way split and stay consistent.
	tr := newTestTree(t, Config{VariableLeaf: true})
	big := disk.PageSize * 3 / 4
	for i := 0; i < 30; i++ {
		p := make([]byte, big)
		p[0] = byte(i)
		x := float64(i) / 30
		tr.Insert(geom.R(x, 0, x+0.01, 0.01), p)
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 30 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
	tr.WalkNodes(func(n *Node) bool {
		if b := tr.nodeBytes(n); b > disk.PageSize {
			t.Fatalf("node %d: %d bytes", n.ID, b)
		}
		return true
	})
	got := 0
	tr.Search(geom.R(-1, -1, 2, 2), func(Entry) bool { got++; return true })
	if got != 30 {
		t.Fatalf("search found %d of 30", got)
	}
}

func TestDeleteDownToEmpty(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(33))
	type stored struct {
		r  geom.Rect
		id uint64
	}
	var all []stored
	for i := 0; i < 1200; i++ {
		r := randRect(rng)
		tr.Insert(r, payloadFor(uint64(i)))
		all = append(all, stored{r, uint64(i)})
	}
	for _, s := range all {
		if !deleteByPayload(tr, s.r, payloadFor(s.id)) {
			t.Fatalf("delete %d failed", s.id)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d, tree should have collapsed", tr.Height())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 0 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
	// And it keeps working afterwards.
	tr.Insert(geom.R(0, 0, 1, 1), payloadFor(7))
	found := 0
	tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool { found++; return true })
	if found != 1 {
		t.Fatal("reuse after emptying failed")
	}
}

func TestDeleteMismatchedPayload(t *testing.T) {
	tr := newTestTree(t, Config{})
	r := geom.R(0, 0, 0.1, 0.1)
	tr.Insert(r, payloadFor(1))
	if deleteByPayload(tr, r, payloadFor(2)) {
		t.Fatal("delete with wrong payload must fail")
	}
	if tr.Len() != 1 {
		t.Fatal("entry lost")
	}
	// nil matcher deletes by rect alone.
	if !tr.Delete(r, nil) {
		t.Fatal("delete by rect failed")
	}
}

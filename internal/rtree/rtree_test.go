package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/pagefile"
)

func newTestTree(t *testing.T, cfg Config) *Tree {
	if t != nil {
		t.Helper()
	}
	d := disk.NewDefault()
	m := buffer.New(d, 4096)
	a := pagefile.NewAllocator(d)
	return New(m, a, cfg)
}

func payloadFor(id uint64) []byte {
	p := make([]byte, 14)
	binary.LittleEndian.PutUint64(p, id)
	return p
}

// marshalNode serializes n into a fresh page, zero-padded to PageSize.
func (t *Tree) marshalNode(n *Node) []byte {
	buf := make([]byte, disk.PageSize)
	t.marshalInto(buf, n)
	return buf
}

// padPage returns page zero-padded to PageSize: a node is stored at its used
// length, and the rest of its page reads as zero.
func padPage(page []byte) []byte {
	return append(bytes.Clone(page), make([]byte, disk.PageSize-len(page))...)
}

// deleteByPayload removes the first leaf entry whose rectangle equals r and
// whose payload equals payload byte-wise.
func deleteByPayload(tr *Tree, r geom.Rect, payload []byte) bool {
	return tr.Delete(r, func(p []byte) bool { return bytes.Equal(p, payload) })
}

func payloadID(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

func randRect(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64(), rng.Float64()
	return geom.R(x, y, x+rng.Float64()*0.05, y+rng.Float64()*0.05)
}

func TestPaperCapacity(t *testing.T) {
	tr := newTestTree(t, Config{})
	// (4096-2)/46 = 89 entries per page, paper section 4.2.
	if tr.MaxEntries() != 89 {
		t.Fatalf("M = %d, want 89", tr.MaxEntries())
	}
	if minEntries != 35 {
		t.Fatalf("m = %d, want 35 (40%% of M)", minEntries)
	}
	if payloadSize != 14 {
		t.Fatalf("payload size = %d, want 14", payloadSize)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, Config{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	found := 0
	tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool { found++; return true })
	if found != 0 {
		t.Fatal("search on empty tree found entries")
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 0 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
}

func TestInsertAndExactSearch(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(1))
	type stored struct {
		r  geom.Rect
		id uint64
	}
	var all []stored
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		tr.Insert(r, payloadFor(uint64(i)))
		all = append(all, stored{r, uint64(i)})
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 2000 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, expected splits", tr.Height())
	}

	// Compare several window queries against brute force.
	for q := 0; q < 50; q++ {
		w := randRect(rng).Scale(4)
		want := map[uint64]bool{}
		for _, s := range all {
			if s.r.Intersects(w) {
				want[s.id] = true
			}
		}
		got := map[uint64]bool{}
		tr.Search(w, func(e Entry) bool {
			got[payloadID(e.Payload)] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing id %d", q, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTestTree(t, Config{})
	for i := 0; i < 100; i++ {
		tr.Insert(geom.R(0.4, 0.4, 0.6, 0.6), payloadFor(uint64(i)))
	}
	calls := 0
	tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop after %d calls", calls)
	}
}

func TestSearchPoint(t *testing.T) {
	tr := newTestTree(t, Config{})
	tr.Insert(geom.R(0, 0, 0.5, 0.5), payloadFor(1))
	tr.Insert(geom.R(0.6, 0.6, 1, 1), payloadFor(2))
	var ids []uint64
	tr.Search(geom.RectFromPoint(geom.Pt(0.25, 0.25)), func(e Entry) bool {
		ids = append(ids, payloadID(e.Payload))
		return true
	})
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("point query ids = %v", ids)
	}
}

func TestNodeMarshalRoundTrip(t *testing.T) {
	tr := newTestTree(t, Config{})
	n := &Node{ID: 7, Level: 0}
	for i := 0; i < 89; i++ {
		n.Entries = append(n.Entries, Entry{
			Rect:    geom.R(float64(i), 0, float64(i)+1, 1),
			Payload: payloadFor(uint64(i)),
		})
	}
	buf := tr.marshalNode(n)
	if len(buf) != disk.PageSize {
		t.Fatalf("marshal length = %d", len(buf))
	}
	got := tr.unmarshalNode(7, buf)
	if got.Level != 0 || len(got.Entries) != 89 {
		t.Fatalf("round trip: level=%d count=%d", got.Level, len(got.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i].Rect != n.Entries[i].Rect {
			t.Fatalf("entry %d rect mismatch", i)
		}
		if payloadID(got.Entries[i].Payload) != uint64(i) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}

	// Directory node round trip.
	dirTree := newTestTree(t, Config{})
	dn := &Node{ID: 9, Level: 2}
	dn.Entries = []Entry{{Rect: geom.R(0, 0, 1, 1), Child: 1234567}}
	got = dirTree.unmarshalNode(9, dirTree.marshalNode(dn))
	if got.Level != 2 || got.Entries[0].Child != 1234567 {
		t.Fatalf("dir round trip: %+v", got)
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	tr := newTestTree(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(geom.R(0, 0, 1, 1), make([]byte, 15))
}

func TestInvalidRectPanics(t *testing.T) {
	tr := newTestTree(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(geom.EmptyRect(), payloadFor(1))
}

func TestVariableLeafInsertSearch(t *testing.T) {
	tr := newTestTree(t, Config{VariableLeaf: true})
	rng := rand.New(rand.NewSource(3))
	// Variable payloads of 100..1500 bytes force byte-budget splits.
	var rects []geom.Rect
	for i := 0; i < 400; i++ {
		r := randRect(rng)
		p := make([]byte, 100+rng.Intn(1400))
		binary.LittleEndian.PutUint64(p, uint64(i))
		tr.Insert(r, p)
		rects = append(rects, r)
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 400 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
	// Every page must fit its byte budget.
	tr.WalkNodes(func(n *Node) bool {
		if b := tr.nodeBytes(n); b > disk.PageSize {
			t.Fatalf("node %d: %d bytes", n.ID, b)
		}
		return true
	})
	w := geom.R(0, 0, 1.2, 1.2)
	got := 0
	tr.Search(w, func(e Entry) bool { got++; return true })
	want := 0
	for _, r := range rects {
		if r.Intersects(w) {
			want++
		}
	}
	if got != want {
		t.Fatalf("full-space query: got %d, want %d", got, want)
	}
}

func TestOnLeafInsertForceSplit(t *testing.T) {
	splits := 0
	var cfg Config
	cfg.DisableLeafReinsert = true
	inserted := 0
	cfg.OnLeafInsert = func(leaf disk.PageID, e Entry) bool {
		inserted++
		return inserted%10 == 0 // force a split every 10 inserts
	}
	cfg.OnLeafSplit = func(left, right disk.PageID, le, re []Entry) {
		splits++
		if len(le) == 0 || len(re) == 0 {
			t.Fatalf("split produced an empty side: %d/%d", len(le), len(re))
		}
	}
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	if splits < 9 {
		t.Fatalf("forced splits = %d, want >= 9", splits)
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 100 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
}

func TestOnLeafSplitReportsAllEntries(t *testing.T) {
	var cfg Config
	cfg.DisableLeafReinsert = true
	seen := map[uint64]disk.PageID{}
	cfg.OnLeafSplit = func(left, right disk.PageID, le, re []Entry) {
		for _, e := range le {
			seen[payloadID(e.Payload)] = left
		}
		for _, e := range re {
			seen[payloadID(e.Payload)] = right
		}
	}
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(5))
	homes := map[uint64]disk.PageID{}
	for i := 0; i < 3000; i++ {
		id := uint64(i)
		leaf := tr.Insert(randRect(rng), payloadFor(id))
		homes[id] = leaf
	}
	for id, leaf := range seen {
		homes[id] = leaf // splits may relocate earlier entries; last wins
	}
	// Verify via a full scan that every entry is on the leaf we believe.
	// Because OnLeafSplit fires in split order and later splits override,
	// the reconstructed map must match the actual tree exactly.
	actual := map[uint64]disk.PageID{}
	tr.WalkNodes(func(n *Node) bool {
		if n.IsLeaf() {
			for _, e := range n.Entries {
				actual[payloadID(e.Payload)] = n.ID
			}
		}
		return true
	})
	if len(actual) != 3000 {
		t.Fatalf("scan found %d entries", len(actual))
	}
	for id, leaf := range actual {
		if homes[id] != leaf {
			t.Fatalf("entry %d: tracked leaf %d, actual %d", id, homes[id], leaf)
		}
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := newTestTree(t, Config{})
	r1 := geom.R(0, 0, 0.1, 0.1)
	tr.Insert(r1, payloadFor(1))
	tr.Insert(geom.R(0.5, 0.5, 0.6, 0.6), payloadFor(2))
	if !deleteByPayload(tr, r1, payloadFor(1)) {
		t.Fatal("delete failed")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if deleteByPayload(tr, r1, payloadFor(1)) {
		t.Fatal("double delete succeeded")
	}
	count := 0
	tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool { count++; return true })
	if count != 1 {
		t.Fatalf("post-delete search count = %d", count)
	}
}

func TestDeleteManyWithCondense(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(6))
	type stored struct {
		r  geom.Rect
		id uint64
	}
	var all []stored
	for i := 0; i < 3000; i++ {
		r := randRect(rng)
		tr.Insert(r, payloadFor(uint64(i)))
		all = append(all, stored{r, uint64(i)})
	}
	heightBefore := tr.Height()
	// Delete 90% in random order.
	perm := rng.Perm(len(all))
	for _, i := range perm[:2700] {
		if !deleteByPayload(tr, all[i].r, payloadFor(all[i].id)) {
			t.Fatalf("delete of %d failed", all[i].id)
		}
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 300 {
		t.Fatalf("invariants after deletes: n=%d err=%v", n, err)
	}
	if tr.Height() > heightBefore {
		t.Fatalf("height grew during deletion: %d -> %d", heightBefore, tr.Height())
	}
	// The remaining 10% must still be findable.
	remaining := map[uint64]bool{}
	for _, i := range perm[2700:] {
		remaining[all[i].id] = true
	}
	found := map[uint64]bool{}
	tr.Search(geom.R(-1, -1, 2, 2), func(e Entry) bool {
		found[payloadID(e.Payload)] = true
		return true
	})
	for id := range remaining {
		if !found[id] {
			t.Fatalf("id %d lost after condensation", id)
		}
	}
}

func TestSearchLeaves(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	w := geom.R(0.2, 0.2, 0.6, 0.6)
	viaLeaves := 0
	tr.SearchLeaves(w, nil, func(lm LeafMatch) bool {
		if len(lm.Matched) == 0 {
			t.Fatal("leaf match without matched entries")
		}
		if !lm.Rect.Intersects(w) {
			t.Fatal("leaf rect does not intersect the window")
		}
		if got := tr.ReadNode(lm.Page).Rect(); got != lm.Rect {
			t.Fatalf("leaf rect %v, data page MBR %v", lm.Rect, got)
		}
		for _, e := range lm.Matched {
			if !e.Rect.Intersects(w) {
				t.Fatal("matched entry does not intersect the window")
			}
		}
		viaLeaves += len(lm.Matched)
		return true
	})
	direct := 0
	tr.Search(w, func(Entry) bool { direct++; return true })
	if viaLeaves != direct {
		t.Fatalf("SearchLeaves found %d, Search found %d", viaLeaves, direct)
	}
}

// TestSearchLeavesRegionAfterChurn: SearchLeaves takes a data page's region
// from its parent entry, and a root that is itself a leaf from its entries,
// so that region must stay the page's MBR through random inserts and deletes
// — forced reinserts, splits, condensing, and a root that grows from a leaf
// and shrinks back to one — under both leaf layouts.
func TestSearchLeavesRegionAfterChurn(t *testing.T) {
	for _, variable := range []bool{false, true} {
		tr := newTestTree(t, Config{VariableLeaf: variable})
		rng := rand.New(rand.NewSource(31))
		var ids []uint64
		rects := map[uint64]geom.Rect{}
		check := func(when string) {
			t.Helper()
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("variable=%v, %s: %v", variable, when, err)
			}
			pages := 0
			tr.SearchLeaves(geom.R(-1, -1, 2, 2), nil, func(lm LeafMatch) bool {
				pages++
				if got := tr.ReadNode(lm.Page).Rect(); got != lm.Rect {
					t.Fatalf("variable=%v, %s: leaf %d region %v, page MBR %v", variable, when, lm.Page, lm.Rect, got)
				}
				return true
			})
			if len(ids) > 0 && pages != tr.LeafPages() {
				t.Fatalf("variable=%v, %s: whole-space search surfaced %d of %d data pages", variable, when, pages, tr.LeafPages())
			}
		}
		insert := func(id uint64) {
			p := payloadFor(id)
			if variable {
				p = append(p, make([]byte, rng.Intn(300))...)
			}
			r := randRect(rng)
			tr.Insert(r, p)
			ids, rects[id] = append(ids, id), r
		}
		remove := func() {
			i := rng.Intn(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if !tr.Delete(rects[id], func(p []byte) bool { return payloadID(p) == id }) {
				t.Fatalf("variable=%v: entry %d not deleted", variable, id)
			}
			delete(rects, id)
		}
		next := uint64(0)
		for ; next < 5; next++ {
			insert(next)
		}
		if tr.Height() != 1 {
			t.Fatalf("variable=%v: height %d with %d entries, want a leaf root", variable, tr.Height(), len(ids))
		}
		check("leaf root")
		for op := 1; op <= 6000; op++ {
			if len(ids) > 0 && rng.Intn(10) < 4 {
				remove()
			} else {
				insert(next)
				next++
			}
			if op%500 == 0 {
				check(fmt.Sprintf("after %d operations, height %d", op, tr.Height()))
			}
		}
		for len(ids) > 3 {
			remove()
			if len(ids)%250 == 0 {
				check(fmt.Sprintf("shrinking, %d entries", len(ids)))
			}
		}
		if tr.Height() != 1 {
			t.Fatalf("variable=%v: height %d with %d entries, want the root a leaf again", variable, tr.Height(), len(ids))
		}
		check("leaf root after shrinking")
	}
}

func TestTreeChargesIO(t *testing.T) {
	d := disk.NewDefault()
	m := buffer.New(d, 8) // tiny buffer forces real I/O
	a := pagefile.NewAllocator(d)
	tr := New(m, a, Config{})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	tr.Flush()
	if d.Cost().PagesWritten == 0 {
		t.Fatal("construction wrote no pages")
	}
	d.ResetCost()
	tr.Search(geom.R(0, 0, 1, 1), func(Entry) bool { return true })
	if d.Cost().PagesRead == 0 {
		t.Fatal("full-space query with tiny buffer read no pages")
	}
}

func TestPersistenceAcrossBufferClear(t *testing.T) {
	d := disk.NewDefault()
	m := buffer.New(d, 64)
	a := pagefile.NewAllocator(d)
	tr := New(m, a, Config{})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 800; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	m.Clear() // flush everything, drop all frames
	// The tree must still answer correctly purely from disk.
	count := 0
	tr.Search(geom.R(-1, -1, 2, 2), func(Entry) bool { count++; return true })
	if count != 800 {
		t.Fatalf("post-clear search found %d of 800", count)
	}
}

func TestPageAccounting(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	var leaves, dirs int
	tr.WalkNodes(func(n *Node) bool {
		if n.IsLeaf() {
			leaves++
		} else {
			dirs++
		}
		return true
	})
	if leaves != tr.LeafPages() || dirs != tr.DirPages() {
		t.Fatalf("accounting: walked %d/%d, tracked %d/%d",
			leaves, dirs, tr.LeafPages(), tr.DirPages())
	}
}

// Property: after any mixture of inserts and deletes the tree satisfies its
// invariants and contains exactly the reference set.
func TestQuickInsertDelete(t *testing.T) {
	f := func(ops []uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree(nil, Config{})
		ref := map[uint64]geom.Rect{}
		nextID := uint64(0)
		for _, op := range ops {
			if op%3 != 0 || len(ref) == 0 {
				r := randRect(rng)
				tr.Insert(r, payloadFor(nextID))
				ref[nextID] = r
				nextID++
			} else {
				// Delete a random existing entry.
				var id uint64
				k := int(op/3) % len(ref)
				for cand := range ref {
					if k == 0 {
						id = cand
						break
					}
					k--
				}
				if !deleteByPayload(tr, ref[id], payloadFor(id)) {
					return false
				}
				delete(ref, id)
			}
		}
		n, err := tr.CheckInvariants()
		if err != nil || n != len(ref) {
			return false
		}
		found := map[uint64]bool{}
		tr.Search(geom.R(-10, -10, 10, 10), func(e Entry) bool {
			found[payloadID(e.Payload)] = true
			return true
		})
		if len(found) != len(ref) {
			return false
		}
		for id := range ref {
			if !found[id] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: queries return exactly the brute-force result for random data,
// in all tree modes.
func TestQuickQueryCorrectnessAllModes(t *testing.T) {
	modes := map[string]Config{
		"standard":      {},
		"no-leaf-reins": {DisableLeafReinsert: true},
		"variable-leaf": {VariableLeaf: true},
	}
	for name, cfg := range modes {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			tr := newTestTree(t, cfg)
			var rects []geom.Rect
			for i := 0; i < 1500; i++ {
				r := randRect(rng)
				p := payloadFor(uint64(i))
				if cfg.VariableLeaf {
					p = append(p, make([]byte, rng.Intn(600))...)
				}
				tr.Insert(r, p)
				rects = append(rects, r)
			}
			if n, err := tr.CheckInvariants(); err != nil || n != 1500 {
				t.Fatalf("invariants: n=%d err=%v", n, err)
			}
			for q := 0; q < 30; q++ {
				w := randRect(rng).Scale(6)
				want := 0
				for _, r := range rects {
					if r.Intersects(w) {
						want++
					}
				}
				got := 0
				tr.Search(w, func(Entry) bool { got++; return true })
				if got != want {
					t.Fatalf("query %d: got %d, want %d", q, got, want)
				}
			}
		})
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	d := disk.NewDefault()
	m := buffer.New(d, 4096)
	a := pagefile.NewAllocator(d)
	tr := New(m, a, Config{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := randRect(rng).Scale(3)
		tr.Search(w, func(Entry) bool { return true })
	}
}

func ExampleTree_Search() {
	d := disk.NewDefault()
	m := buffer.New(d, 256)
	a := pagefile.NewAllocator(d)
	tr := New(m, a, Config{})
	tr.Insert(geom.R(0, 0, 1, 1), []byte("unit-square....")[:14])
	n := 0
	tr.Search(geom.R(0.5, 0.5, 2, 2), func(e Entry) bool { n++; return true })
	fmt.Println(n)
	// Output: 1
}

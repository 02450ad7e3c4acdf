package buffer

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"spatialcluster/internal/disk"
)

func newDiskWithPages(t *testing.T, n int) *disk.Disk {
	t.Helper()
	d := disk.NewDefault()
	d.Grow(n)
	for i := 0; i < n; i++ {
		d.Poke(disk.PageID(i), []byte{byte(i)})
	}
	return d
}

func TestGetHitMiss(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 4)

	if got := m.Get(3); !bytes.Equal(got, []byte{3}) {
		t.Fatalf("Get(3) = %v", got)
	}
	if s := m.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats after miss = %+v", s)
	}
	before := d.Cost()
	if got := m.Get(3); !bytes.Equal(got, []byte{3}) {
		t.Fatalf("Get(3) second = %v", got)
	}
	if d.Cost() != before {
		t.Fatal("buffer hit must not touch the disk")
	}
	if s := m.Stats(); s.Hits != 1 {
		t.Fatalf("stats after hit = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 3)
	m.Get(0)
	m.Get(1)
	m.Get(2)
	m.Get(0) // promote 0
	m.Get(3) // evicts 1 (LRU)
	if m.Contains(1) {
		t.Fatal("page 1 should have been evicted")
	}
	for _, id := range []disk.PageID{0, 2, 3} {
		if !m.Contains(id) {
			t.Fatalf("page %d should be buffered", id)
		}
	}
	if s := m.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 2)
	m.Put(5, []byte("five"))
	before := d.Cost()
	m.Get(1)
	m.Get(2) // evicts page 5, which is dirty
	diff := d.Cost().Sub(before)
	if diff.PagesWritten != 1 {
		t.Fatalf("expected 1 page written back, cost diff %+v", diff)
	}
	if got := d.Peek(5); !bytes.Equal(got, []byte("five")) {
		t.Fatalf("page 5 on disk = %q", got)
	}
}

func TestFlushCoalescesConsecutiveDirtyPages(t *testing.T) {
	d := newDiskWithPages(t, 64)
	m := New(d, 32)
	// Dirty pages 10..14 (consecutive) and 30 (isolated).
	for i := 10; i <= 14; i++ {
		m.Put(disk.PageID(i), []byte{byte(i)})
	}
	m.Put(30, []byte{30})
	before := d.Cost()
	m.Flush()
	diff := d.Cost().Sub(before)
	if diff.PagesWritten != 6 {
		t.Fatalf("flushed pages = %d, want 6", diff.PagesWritten)
	}
	if diff.WriteRequests != 2 {
		t.Fatalf("write requests = %d, want 2 (coalesced run + single)", diff.WriteRequests)
	}
	// Everything clean now: a second flush writes nothing.
	before = d.Cost()
	m.Flush()
	if d.Cost() != before {
		t.Fatal("second flush must be free")
	}
}

func TestEvictionWriteClustering(t *testing.T) {
	d := newDiskWithPages(t, 64)
	m := New(d, 4)
	// Fill buffer with 4 dirty consecutive pages; the next insert evicts the
	// LRU victim and should write the whole dirty run in one request.
	for i := 0; i < 4; i++ {
		m.Put(disk.PageID(i), []byte{byte(100 + i)})
	}
	before := d.Cost()
	m.Get(20)
	diff := d.Cost().Sub(before)
	if diff.WriteRequests != 1 || diff.PagesWritten != 4 {
		t.Fatalf("eviction should write-cluster 4 pages in 1 request, got %+v", diff)
	}
	// The neighbours are clean now; subsequent evictions write nothing.
	before = d.Cost()
	m.Get(21)
	diff = d.Cost().Sub(before)
	if diff.PagesWritten != 0 {
		t.Fatalf("clean eviction must not write, got %+v", diff)
	}
}

func TestMissing(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 4)
	m.Get(2)
	m.Get(5)
	missing := m.Missing([]disk.PageID{5, 1, 2, 7, 1}, nil, nil)
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 7 {
		t.Fatalf("Missing = %v, want [1 7]", missing)
	}
	// A page listed twice counts once, wherever the repeat sits.
	m.ResetStats()
	if missing = m.Missing([]disk.PageID{4, 3, 4, 2, 3, 2}, nil, nil); len(missing) != 2 || missing[0] != 3 || missing[1] != 4 {
		t.Fatalf("Missing = %v, want [3 4]", missing)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats after repeats = %+v, want 1 hit and 2 misses", st)
	}
}

// TestPinPagesSubset: only resident pages are pinned and returned, appended
// to the caller's slice without allocating.
func TestPinPagesSubset(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 4)
	m.Get(2)
	m.Get(5)
	ids := []disk.PageID{2, 7, 5, 8}
	pinned := m.PinPages(nil, ids)
	if len(pinned) != 2 || pinned[0] != 2 || pinned[1] != 5 {
		t.Fatalf("PinPages = %v, want [2 5]", pinned)
	}
	m.UnpinPages(pinned)
	dst := make([]disk.PageID, 1, 4)
	all := m.PinPages(dst, ids[:1])
	if len(all) != 2 || all[1] != 2 || &all[0] != &dst[0] {
		t.Fatalf("PinPages of resident pages = %v, want them appended to the caller's slice", all)
	}
	all = all[1:]
	m.UnpinPages(all)
	m.Get(1) // nothing stays pinned: the buffer can still evict
	m.Get(3)
	m.Get(4)
	if m.Len() != 4 {
		t.Fatalf("buffer holds %d pages, want 4", m.Len())
	}
}

func TestExecutePlanNormalVsVector(t *testing.T) {
	d := newDiskWithPages(t, 20)

	// Normal read: all transferred pages buffered.
	m := New(d, 16)
	runs := []disk.Run{{Start: 2, N: 4}} // pages 2,3,4,5; requested only 2 and 5
	req := []disk.PageID{2, 5}
	before := d.Cost()
	m.ExecutePlan(runs, req, false, nil, nil)
	diff := d.Cost().Sub(before)
	if diff.PagesRead != 4 || diff.Seeks != 1 || diff.Rotations != 1 {
		t.Fatalf("normal read cost = %+v", diff)
	}
	for id := disk.PageID(2); id <= 5; id++ {
		if !m.Contains(id) {
			t.Fatalf("normal read must buffer page %d", id)
		}
	}

	// Vector read: same transfer cost, but only requested pages buffered.
	m2 := New(d, 16)
	before = d.Cost()
	m2.ExecutePlan(runs, req, true, nil, nil)
	diff = d.Cost().Sub(before)
	if diff.PagesRead != 4 {
		t.Fatalf("vector read transfer cost = %+v", diff)
	}
	if !m2.Contains(2) || !m2.Contains(5) {
		t.Fatal("vector read must buffer requested pages")
	}
	if m2.Contains(3) || m2.Contains(4) {
		t.Fatal("vector read must not buffer gap pages")
	}
}

func TestExecutePlanChainsFollowUpRuns(t *testing.T) {
	d := newDiskWithPages(t, 40)
	m := New(d, 32)
	d.ReadRun(30, make([][]byte, 1), false, nil) // move the head away from page 0
	runs := []disk.Run{{Start: 0, N: 2}, {Start: 10, N: 3}}
	before := d.Cost()
	m.ExecutePlan(runs, []disk.PageID{0, 1, 10, 11, 12}, false, nil, nil)
	diff := d.Cost().Sub(before)
	if diff.Seeks != 1 {
		t.Fatalf("one uninterrupted access must seek once, got %+v", diff)
	}
	if diff.Rotations != 2 {
		t.Fatalf("two runs must pay two rotational delays, got %+v", diff)
	}
	if diff.PagesRead != 5 {
		t.Fatalf("pages read = %d", diff.PagesRead)
	}
}

func TestExecutePlanPreservesDirtyFrames(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 8)
	m.Put(3, []byte("dirty"))
	m.ExecutePlan([]disk.Run{{Start: 2, N: 3}}, []disk.PageID{2, 3, 4}, false, nil, nil)
	got, ok := m.Touch(3)
	if !ok || !bytes.Equal(got, []byte("dirty")) {
		t.Fatalf("dirty frame overwritten by stale disk data: %q", got)
	}
	m.Flush()
	if !bytes.Equal(d.Peek(3), []byte("dirty")) {
		t.Fatal("dirty content lost")
	}
}

// TestExecutePlanDirtyPageEvictedMidPlan: on a buffer smaller than the run,
// admitting the run's first pages evicts — writes back — a dirty page the
// same run covers. What the run read for that page predates the write-back
// and must not come back as a clean frame.
func TestExecutePlanDirtyPageEvictedMidPlan(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, Policy2Q} {
		d := newDiskWithPages(t, 10)
		m := NewWithPolicy(d, 2, policy)
		m.Put(5, []byte("dirty")) // least recently used by the time the run reaches it
		m.Get(8)
		m.ExecutePlan([]disk.Run{{Start: 3, N: 3}}, []disk.PageID{3, 4, 5}, false, nil, nil)
		if got := m.Get(5); !bytes.Equal(got, []byte("dirty")) {
			t.Fatalf("%v: page 5 reads %q after the plan, want the written-back content", policy, got)
		}
		if !bytes.Equal(d.Peek(5), []byte("dirty")) {
			t.Fatalf("%v: dirty content lost", policy)
		}
	}
}

func TestDropAndClear(t *testing.T) {
	d := newDiskWithPages(t, 10)
	m := New(d, 4)
	m.Put(1, []byte("x"))
	m.Drop(1)
	if m.Contains(1) {
		t.Fatal("Drop must remove the page")
	}
	m.Drop(1) // idempotent
	if !bytes.Equal(d.Peek(1), []byte{1}) {
		t.Fatal("Drop must not write back")
	}

	m.Put(2, []byte("y"))
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("Clear must empty the buffer")
	}
	if !bytes.Equal(d.Peek(2), []byte("y")) {
		t.Fatal("Clear must flush dirty pages first")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(disk.NewDefault(), 0)
}

// Property: after any sequence of Get/Put operations followed by Flush, the
// disk content equals the content of a reference map, and the buffer never
// exceeds its capacity.
func TestQuickBufferConsistency(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%8
		const numPages = 24
		d := disk.NewDefault()
		d.Grow(numPages)
		m := New(d, capacity)
		want := make(map[disk.PageID]byte)
		for i := 0; i < numPages; i++ {
			d.Poke(disk.PageID(i), []byte{0})
			want[disk.PageID(i)] = 0
		}
		for _, op := range ops {
			id := disk.PageID(op % numPages)
			val := byte(op >> 8)
			if op%2 == 0 {
				got := m.Get(id)
				if len(got) != 1 || got[0] != want[id] {
					return false
				}
			} else {
				m.Put(id, []byte{val})
				want[id] = val
			}
			if m.Len() > capacity {
				return false
			}
		}
		m.Flush()
		for id, v := range want {
			got := d.Peek(id)
			if len(got) != 1 || got[0] != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMissAllocs: on a full buffer a miss allocates nothing — GetTallied and
// ExecutePlan read into the caller's page headers and reuse the evicted
// frame, and PinPages appends to the caller's slice — and the headers come
// back cleared, holding no page.
func TestMissAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	const pages = 64
	m := New(newDiskWithPages(t, pages), 8)
	var tl disk.Tally
	hdrs := make([][]byte, 4)
	next := disk.PageID(0)
	get := func() {
		if got := m.GetTallied(next, &tl, hdrs); got[0] != byte(next) {
			t.Fatalf("GetTallied(%d) = %v", next, got)
		}
		next = (next + 1) % pages
	}
	plan := func() {
		hdrs = m.ExecutePlan([]disk.Run{{Start: next, N: 3}, {Start: next + 5, N: 2}}, nil, false, &tl, hdrs)
		next = (next + 8) % (pages - 8)
	}
	pinned := make([]disk.PageID, 0, 8)
	pin := func() {
		pinned = m.PinPages(pinned[:0], []disk.PageID{next, next + 1, 0, 1, 2})
		m.UnpinPages(pinned)
	}
	for name, f := range map[string]func(){"GetTallied": get, "ExecutePlan": plan, "PinPages": pin} {
		get() // a full buffer and a frame table for every page
		for range pages {
			get()
		}
		before := tl.Misses
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s allocates %v times per call on a cold buffer, want 0", name, a)
		}
		if name == "GetTallied" && tl.Misses-before < 100 {
			t.Errorf("only %d of 101 GetTallied calls missed", tl.Misses-before)
		}
		for i, h := range hdrs {
			if h != nil {
				t.Fatalf("after %s page header %d still holds a page", name, i)
			}
		}
	}
	if tl.Cost.ReadRequests == 0 {
		t.Fatal("nothing was read")
	}
}

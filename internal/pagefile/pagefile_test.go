package pagefile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
)

func TestAllocatorFirstFitAndGrow(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	e1 := a.Alloc(4)
	e2 := a.Alloc(4)
	if e1.End() != e2.Start {
		t.Fatalf("fresh allocations should be adjacent: %+v %+v", e1, e2)
	}
	a.Free(e1)
	e3 := a.Alloc(2)
	if e3.Start != e1.Start {
		t.Fatalf("first fit should reuse the hole: %+v", e3)
	}
	e4 := a.Alloc(2)
	if e4.Start != e1.Start+2 {
		t.Fatalf("remainder of the hole should be used next: %+v", e4)
	}
	if a.FreePages() != 0 {
		t.Fatalf("free pages = %d", a.FreePages())
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	e1, e2, e3 := a.Alloc(2), a.Alloc(2), a.Alloc(2)
	a.Free(e1)
	a.Free(e3)
	if a.FreeExtents() != 2 {
		t.Fatalf("free extents = %d, want 2", a.FreeExtents())
	}
	a.Free(e2)
	if a.FreeExtents() != 1 {
		t.Fatalf("coalescing failed: %d extents", a.FreeExtents())
	}
	if a.FreePages() != 6 {
		t.Fatalf("free pages = %d", a.FreePages())
	}
	if a.AllocatedPages() != 0 {
		t.Fatalf("allocated pages = %d", a.AllocatedPages())
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	e := a.Alloc(3)
	a.Free(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free(e)
}

func TestBuddySizeFor(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	b := NewBuddySystem(a, 16, 3) // sizes 16, 8, 4
	cases := map[int]int{1: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16}
	for n, want := range cases {
		if got := b.SizeFor(n); got != want {
			t.Errorf("SizeFor(%d) = %d, want %d", n, got, want)
		}
	}
	sizes := b.Sizes()
	if len(sizes) != 3 || sizes[0] != 16 || sizes[1] != 8 || sizes[2] != 4 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestBuddyAllocSplitCoalesce(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	b := NewBuddySystem(a, 16, 5) // sizes 16..1

	e1 := b.Alloc(1)
	if e1.Pages != 1 {
		t.Fatalf("Alloc(1) = %+v", e1)
	}
	if b.ChunkPages() != 16 {
		t.Fatalf("chunk pages = %d", b.ChunkPages())
	}
	e2 := b.Alloc(1)
	e3 := b.Alloc(2)
	if b.ChunkPages() != 16 {
		t.Fatal("all small buddies must fit in one chunk")
	}
	if b.OccupiedPages() != 4 {
		t.Fatalf("occupied = %d, want 4", b.OccupiedPages())
	}

	// Free everything: the chunk must coalesce and return to the allocator.
	b.Free(e1)
	b.Free(e2)
	b.Free(e3)
	if b.ChunkPages() != 0 || b.LiveBuddies() != 0 {
		t.Fatalf("chunk not returned: chunks=%d live=%d", b.ChunkPages(), b.LiveBuddies())
	}
	if a.FreePages() != 16 {
		t.Fatalf("allocator did not get the chunk back: %d", a.FreePages())
	}
}

func TestBuddyGrow(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	b := NewBuddySystem(a, 16, 3) // sizes 16, 8, 4

	e := b.Alloc(3) // buddy of 4
	if e.Pages != 4 {
		t.Fatalf("Alloc(3) = %+v", e)
	}
	same, moved := b.Grow(e, 4)
	if moved || same != e {
		t.Fatal("Grow within the buddy must not move")
	}
	bigger, moved := b.Grow(e, 6)
	if bigger.Pages != 8 {
		t.Fatalf("Grow to 6 pages = %+v, want buddy of 8", bigger)
	}
	_ = moved // may or may not move depending on layout
	if b.OccupiedPages() != 8 {
		t.Fatalf("occupied = %d", b.OccupiedPages())
	}
}

func TestBuddyRestrictedMinSize(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	b := NewBuddySystem(a, 16, 1) // only size 16: fixed units
	e := b.Alloc(1)
	if e.Pages != 16 {
		t.Fatalf("restricted-to-one-size Alloc(1) = %+v", e)
	}
}

// The paper's Smax values are 20/40/80 pages — not powers of two. The
// restricted buddy system of section 5.3.1 uses sizes {Smax, Smax/2, Smax/4},
// e.g. 20/10/5 pages for series A.
func TestBuddyPaperSizes(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	b := NewBuddySystem(a, 20, 3)
	sizes := b.Sizes()
	if len(sizes) != 3 || sizes[0] != 20 || sizes[1] != 10 || sizes[2] != 5 {
		t.Fatalf("Sizes = %v, want [20 10 5]", sizes)
	}
	e1 := b.Alloc(4) // buddy of 5
	e2 := b.Alloc(4)
	e3 := b.Alloc(9) // buddy of 10
	if e1.Pages != 5 || e2.Pages != 5 || e3.Pages != 10 {
		t.Fatalf("allocs: %+v %+v %+v", e1, e2, e3)
	}
	if b.ChunkPages() != 20 {
		t.Fatalf("chunk pages = %d, want one 20-page chunk", b.ChunkPages())
	}
	b.Free(e1)
	b.Free(e2)
	b.Free(e3)
	if b.ChunkPages() != 0 {
		t.Fatal("chunk must coalesce and return to the allocator")
	}
	// Halving stops at odd sizes.
	odd := NewBuddySystem(a, 20, 10)
	s := odd.Sizes()
	if s[len(s)-1] != 5 {
		t.Fatalf("odd halving sizes = %v, want min 5", s)
	}
}

func TestBuddyPanics(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	for name, f := range map[string]func(){
		"non-positive Smax": func() { NewBuddySystem(a, 0, 2) },
		"zero sizes":        func() { NewBuddySystem(a, 16, 0) },
		"oversize request":  func() { NewBuddySystem(a, 16, 2).Alloc(17) },
		"unknown free":      func() { NewBuddySystem(a, 16, 2).Free(Extent{Start: 3, Pages: 8}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: live buddies never overlap, are always one of the allowed sizes,
// aligned to their size within the chunk, and occupied pages equal the sum of
// live buddy sizes.
func TestQuickBuddyInvariants(t *testing.T) {
	f := func(ops []uint8, numSizesRaw uint8) bool {
		numSizes := 1 + int(numSizesRaw)%5
		a := NewAllocator(disk.NewDefault())
		b := NewBuddySystem(a, 16, numSizes)
		type allocation struct{ e Extent }
		var live []allocation
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := 1 + int(op/2)%16
				e := b.Alloc(n)
				if e.Pages < n {
					return false
				}
				live = append(live, allocation{e})
			} else {
				i := int(op/2) % len(live)
				b.Free(live[i].e)
				live = append(live[:i], live[i+1:]...)
			}
			// Invariants.
			var sum int
			for i := range live {
				sum += live[i].e.Pages
				ok := false
				for _, s := range b.Sizes() {
					if live[i].e.Pages == s {
						ok = true
					}
				}
				if !ok {
					return false
				}
				for j := i + 1; j < len(live); j++ {
					ei, ej := live[i].e, live[j].e
					if ei.Start < ej.End() && ej.Start < ei.End() {
						return false // overlap
					}
				}
			}
			if b.OccupiedPages() != sum {
				return false
			}
			if b.LiveBuddies() != len(live) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSeqFileAppendReadRoundTrip(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	f := NewSequentialFile(a, 8)

	objs := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 5000), // spans pages
		bytes.Repeat([]byte{3}, 3),
		bytes.Repeat([]byte{4}, 9000), // spans 3 pages
	}
	refs := make([]Ref, len(objs))
	for i, o := range objs {
		refs[i] = f.Append(o)
	}
	f.Flush()
	for i, ref := range refs {
		got := f.ReadDirect(ref, nil)
		if !bytes.Equal(got, objs[i]) {
			t.Fatalf("object %d: got %d bytes, first=%d", i, len(got), got[0])
		}
	}
	if f.BytesStored() != 100+5000+3+9000 {
		t.Fatalf("BytesStored = %d", f.BytesStored())
	}
}

func TestSeqFileDensePacking(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	f := NewSequentialFile(a, 64)
	// Eight 512-byte objects fit exactly in one page.
	for i := 0; i < 8; i++ {
		f.Append(make([]byte, 512))
	}
	f.Flush()
	if f.PagesUsed() != 1 {
		t.Fatalf("dense file pages = %d, want 1", f.PagesUsed())
	}
}

func TestExclusiveFilePadding(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	f := NewExclusiveFile(a, 64)
	r1 := f.Append(make([]byte, 100))
	r2 := f.Append(make([]byte, 100))
	if r1.Page == r2.Page {
		t.Fatal("exclusive objects must not share a page")
	}
	if r1.Off != 0 || r2.Off != 0 {
		t.Fatal("exclusive objects start at page boundaries")
	}
	if f.PagesUsed() != 2 {
		t.Fatalf("pages = %d, want 2", f.PagesUsed())
	}
}

func TestSeqFileChunkBoundary(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	f := NewSequentialFile(a, 2)                    // tiny chunks of 2 pages
	r1 := f.Append(make([]byte, disk.PageSize+100)) // fills chunk 1 (2 pages)
	r2 := f.Append(make([]byte, disk.PageSize+100)) // must go to a new chunk
	f.Flush()
	if r2.Page < r1.Page+2 {
		t.Fatalf("object crossed a chunk boundary: %+v then %+v", r1, r2)
	}
	if !bytes.Equal(f.ReadDirect(r1, nil), make([]byte, disk.PageSize+100)) {
		t.Fatal("r1 content")
	}
}

func TestSeqFileReadCostIsSingleRequest(t *testing.T) {
	d := disk.NewDefault()
	a := NewAllocator(d)
	f := NewSequentialFile(a, 64)
	ref := f.Append(make([]byte, 3*disk.PageSize)) // spans 3 pages
	f.Flush()
	d.ReadRun(ref.Page+40, make([][]byte, 1), false, nil) // move head away
	before := d.Cost()
	f.ReadDirect(ref, nil)
	diff := d.Cost().Sub(before)
	if diff.Seeks != 1 || diff.Rotations != 1 || diff.PagesRead != 3 {
		t.Fatalf("ReadDirect cost = %+v, want 1 seek, 1 rotation, 3 transfers", diff)
	}
}

func TestSeqFileReadBuffered(t *testing.T) {
	d := disk.NewDefault()
	a := NewAllocator(d)
	f := NewSequentialFile(a, 64)
	payload := bytes.Repeat([]byte{7}, 2*disk.PageSize+17)
	ref := f.Append(payload)
	f.Flush()

	m := buffer.New(d, 16)
	got := f.ReadBuffered(m, ref)
	if !bytes.Equal(got, payload) {
		t.Fatal("buffered read content mismatch")
	}
	// Second read: all pages hit, no disk cost.
	before := d.Cost()
	got = f.ReadBuffered(m, ref)
	if !bytes.Equal(got, payload) || d.Cost() != before {
		t.Fatal("second buffered read must be free")
	}
}

func TestSeqFileFlushIdempotent(t *testing.T) {
	d := disk.NewDefault()
	a := NewAllocator(d)
	f := NewSequentialFile(a, 8)
	f.Append([]byte("abc"))
	f.Flush()
	before := d.Cost()
	f.Flush()
	f.ReadDirect(Ref{Page: 0, Off: 0, Len: 3}, nil) // triggers internal Flush too
	diff := d.Cost().Sub(before)
	if diff.PagesWritten != 0 {
		t.Fatalf("repeated flush must not rewrite: %+v", diff)
	}
}

func TestSeqFileAppendAfterFlushKeepsFilling(t *testing.T) {
	a := NewAllocator(disk.NewDefault())
	f := NewSequentialFile(a, 8)
	r1 := f.Append([]byte("aaa"))
	f.Flush()
	r2 := f.Append([]byte("bbb"))
	f.Flush()
	if r2.Page != r1.Page || r2.Off != 3 {
		t.Fatalf("append after flush must keep filling the tail page: %+v", r2)
	}
	if got := f.ReadDirect(r2, nil); !bytes.Equal(got, []byte("bbb")) {
		t.Fatalf("r2 = %q", got)
	}
	if got := f.ReadDirect(r1, nil); !bytes.Equal(got, []byte("aaa")) {
		t.Fatalf("r1 = %q", got)
	}
}

// Property: any sequence of appends round-trips through ReadDirect.
func TestQuickSeqFileRoundTrip(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(disk.NewDefault())
		sf := NewSequentialFile(a, 16)
		type stored struct {
			ref  Ref
			data []byte
		}
		var all []stored
		for _, s := range sizes {
			n := 1 + int(s)%10000
			data := make([]byte, n)
			rng.Read(data)
			all = append(all, stored{sf.Append(data), data})
		}
		sf.Flush()
		for _, st := range all {
			if !bytes.Equal(sf.ReadDirect(st.ref, nil), st.data) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRefSpan(t *testing.T) {
	r := Ref{Page: 10, Off: 4000, Len: 200}
	span := r.Span()
	if span.Start != 10 || span.N != 2 {
		t.Fatalf("span = %+v, want start 10 n 2", span)
	}
	if r.NumPages() != 2 {
		t.Fatal("NumPages")
	}
	one := Ref{Page: 3, Off: 0, Len: 1}
	if one.Span().N != 1 {
		t.Fatal("single byte spans one page")
	}
}

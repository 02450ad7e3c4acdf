package pagefile

import (
	"bytes"
	"fmt"
	"sync"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
)

// DefaultChunkPages is the extent size in pages that a SequentialFile grows
// by. Within a chunk, appends are physically consecutive; an object never
// spans a chunk boundary (internal clustering, paper section 3.1).
const DefaultChunkPages = 1024

// Ref locates a byte range previously appended to a SequentialFile: the
// object starts in page Page at byte offset Off and is Len bytes long,
// spanning physically consecutive pages.
type Ref struct {
	Page disk.PageID
	Off  int
	Len  int
}

// Span returns the run of pages the referenced bytes occupy.
func (r Ref) Span() disk.Run {
	n := (r.Off + r.Len + disk.PageSize - 1) / disk.PageSize
	if n == 0 {
		n = 1
	}
	return disk.Run{Start: r.Page, N: n}
}

// NumPages returns the number of pages the referenced bytes touch (the nop
// term of the paper's cost formulae).
func (r Ref) NumPages() int { return r.Span().N }

// SequentialFile is an append-only byte store with internal clustering: each
// appended object occupies physically consecutive pages, and objects are
// packed densely ("stored in a sequential file without sacrificing storage",
// paper section 5.3). The unfinished tail page is held in memory and written
// once full (or on Flush), so sequential construction pays essentially one
// transfer per page. In exclusive mode each object gets its own pages
// (the overflow file of the primary organization, paper section 5.2).
type SequentialFile struct {
	alloc      *Allocator
	chunkPages int
	exclusive  bool

	cur       Extent      // current chunk; zero when none
	nextFresh disk.PageID // next never-used page in the current chunk
	curPage   disk.PageID // page currently being filled
	curBuf    []byte      // in-memory content of curPage
	curOff    int         // next free byte within curPage
	havePage  bool
	tailDirty bool // curBuf has bytes not yet on disk
	// flushMu makes Flush safe among concurrent readers: ReadDirect and
	// CaptureBuffered flush the tail first, under the store's read lock.
	flushMu sync.Mutex

	pagesUsed  int
	bytesTotal int64
	bytesDead  int64
}

// NewSequentialFile creates a densely packed sequential file drawing chunks
// of chunkPages from alloc; chunkPages <= 0 selects DefaultChunkPages.
func NewSequentialFile(alloc *Allocator, chunkPages int) *SequentialFile {
	if chunkPages <= 0 {
		chunkPages = DefaultChunkPages
	}
	return &SequentialFile{alloc: alloc, chunkPages: chunkPages, curPage: disk.InvalidPage}
}

// NewExclusiveFile creates a sequential file in which every object occupies
// its own pages exclusively.
func NewExclusiveFile(alloc *Allocator, chunkPages int) *SequentialFile {
	f := NewSequentialFile(alloc, chunkPages)
	f.exclusive = true
	return f
}

// Append stores data and returns its Ref. Completed pages are written as
// they fill; appends stream sequentially within a chunk.
func (f *SequentialFile) Append(data []byte) Ref {
	if len(data) == 0 {
		panic("pagefile: Append of empty object")
	}
	maxPages := (len(data) + disk.PageSize - 1) / disk.PageSize
	if maxPages > f.chunkPages {
		panic(fmt.Sprintf("pagefile: object of %d bytes exceeds chunk of %d pages",
			len(data), f.chunkPages))
	}

	if f.exclusive && f.havePage && f.curOff > 0 {
		f.completeCurrentPage()
	}

	if f.cur.Pages == 0 || (!f.havePage && f.nextFresh >= f.cur.End()) {
		f.newChunk()
	}

	startOff := 0
	startPage := f.nextFresh
	if f.havePage {
		startOff = f.curOff
		startPage = f.curPage
	}
	span := (startOff + len(data) + disk.PageSize - 1) / disk.PageSize
	if startPage+disk.PageID(span) > f.cur.End() {
		// The object would cross the chunk boundary: complete the tail
		// page, pad the rest of the chunk and open a fresh one.
		if f.havePage && f.curOff > 0 {
			f.completeCurrentPage()
		}
		f.newChunk()
		startOff = 0
		startPage = f.nextFresh
	}

	ref := Ref{Page: startPage, Off: startOff, Len: len(data)}
	remaining := data
	for len(remaining) > 0 {
		f.ensurePage()
		space := disk.PageSize - f.curOff
		n := len(remaining)
		if n > space {
			n = space
		}
		copy(f.curBuf[f.curOff:], remaining[:n])
		f.curOff += n
		f.tailDirty = true
		remaining = remaining[n:]
		if f.curOff == disk.PageSize {
			f.completeCurrentPage()
		}
	}
	f.bytesTotal += int64(len(data))
	if f.exclusive && f.havePage && f.curOff > 0 {
		f.completeCurrentPage()
	}
	return ref
}

func (f *SequentialFile) newChunk() {
	f.cur = f.alloc.Alloc(f.chunkPages)
	f.nextFresh = f.cur.Start
	f.havePage = false
	f.curPage = disk.InvalidPage
	f.curBuf = nil
	f.curOff = 0
}

func (f *SequentialFile) ensurePage() {
	if f.havePage {
		return
	}
	if f.cur.Pages == 0 || f.nextFresh >= f.cur.End() {
		f.newChunk()
	}
	f.curPage = f.nextFresh
	f.nextFresh++
	f.curBuf = make([]byte, disk.PageSize)
	f.curOff = 0
	f.havePage = true
	f.pagesUsed++
}

// completeCurrentPage hands the in-memory tail page to the disk and closes it.
func (f *SequentialFile) completeCurrentPage() {
	if !f.havePage {
		return
	}
	f.alloc.Disk().WriteRun(f.curPage, [][]byte{f.curBuf}, nil)
	f.havePage = false
	f.tailDirty = false
	f.curPage = disk.InvalidPage
	f.curBuf = nil
	f.curOff = 0
}

// Flush writes the unfinished tail page (if any) to disk. The page stays
// open: further appends keep filling it (and will rewrite it when it
// completes, as a real file system would), so the disk gets a copy.
func (f *SequentialFile) Flush() { f.flush(nil) }

// flush is Flush charging the write to t.
func (f *SequentialFile) flush(t *disk.Tally) {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	if f.havePage && f.tailDirty {
		f.alloc.Disk().WriteRun(f.curPage, [][]byte{bytes.Clone(f.curBuf)}, t)
		f.tailDirty = false
	}
}

// PagesUsed returns the number of pages occupied by the file, including a
// partially filled tail page.
func (f *SequentialFile) PagesUsed() int { return f.pagesUsed }

// BytesStored returns the object bytes currently stored (appended and not
// discarded).
func (f *SequentialFile) BytesStored() int64 { return f.bytesTotal }

// DeadBytes returns the bytes of discarded objects that still occupy file
// pages (always zero in exclusive mode, where Discard frees the pages).
func (f *SequentialFile) DeadBytes() int64 { return f.bytesDead }

// Discard deletes a previously appended object. In exclusive mode the
// object's pages are returned to the allocator (they were exclusively owned).
// In shared mode the file is append-only, so the bytes remain as dead space,
// tracked by DeadBytes, until the owner compacts or drops the file. Like
// allocation, deallocation models file-system bookkeeping and charges no I/O.
// Discarding the same ref twice corrupts the accounting (and, in exclusive
// mode, trips the allocator's double-free check); callers keep the live set.
func (f *SequentialFile) Discard(ref Ref) {
	if ref.Len <= 0 {
		panic(fmt.Sprintf("pagefile: Discard of empty ref %+v", ref))
	}
	f.bytesTotal -= int64(ref.Len)
	if !f.exclusive {
		f.bytesDead += int64(ref.Len)
		return
	}
	// Exclusive mode completes the tail page after every append, so the
	// span's pages hold nothing but this object.
	span := ref.Span()
	f.alloc.Free(Extent{Start: span.Start, Pages: span.N})
	f.pagesUsed -= span.N
}

// ReadDirect reads the referenced bytes with one read request for the
// spanned consecutive pages, bypassing any buffer (every access pays seek and
// latency — the secondary organization's behaviour for exact objects). The
// read, and the write of an unflushed tail page it needs first, are charged
// to t, if any.
func (f *SequentialFile) ReadDirect(ref Ref, t *disk.Tally) []byte {
	f.flush(t)
	span := ref.Span()
	pages := make([][]byte, span.N)
	f.alloc.Disk().ReadRun(span.Start, pages, false, t)
	return assemble(ref, pages)
}

// ReadBuffered reads the referenced bytes through the buffer manager m:
// buffered pages are hits, missing pages are fetched with a minimal-run read
// schedule.
func (f *SequentialFile) ReadBuffered(m *buffer.Manager, ref Ref) []byte {
	return assemble(ref, f.CaptureBuffered(m, ref))
}

// CaptureBuffered charges the I/O to read the referenced bytes through m and
// returns the spanned page contents. The returned slices stay valid after
// eviction (page data is immutable once buffered), so assembling them can run
// on another goroutine without touching the buffer — the parallel join
// prepares transfers this way. The pages are pinned while they are captured so a
// concurrent reader's eviction pressure cannot force a mid-capture re-read.
func (f *SequentialFile) CaptureBuffered(m *buffer.Manager, ref Ref) [][]byte {
	f.Flush()
	span := ref.Span()
	ids := make([]disk.PageID, span.N, 2*span.N) // the pinned subset goes in the second half
	for i := range ids {
		ids[i] = span.Start + disk.PageID(i)
	}
	missing := m.Missing(ids, nil, nil)
	if len(missing) > 0 {
		m.ExecutePlan(disk.PlanRequired(nil, missing), ids, false, nil, nil)
	}
	pinned := m.PinPages(ids[span.N:span.N], ids)
	pages := make([][]byte, span.N)
	for i, id := range ids {
		data, ok := m.Touch(id)
		if !ok {
			// Evicted between ExecutePlan inserts (object larger than the
			// buffer): re-read the single page.
			data = m.Get(id)
		}
		pages[i] = data
	}
	m.UnpinPages(pinned)
	return pages
}

// assemble returns the referenced bytes given the spanned page contents: the
// page sub-slice itself when they lie inside one page (page data is
// immutable once buffered or read — see internal/buffer — so the view stays
// valid), a fresh copy when they straddle pages.
func assemble(ref Ref, pages [][]byte) []byte {
	if end := ref.Off + ref.Len; end <= disk.PageSize && len(pages) > 0 && end <= len(pages[0]) {
		return pages[0][ref.Off:end:end]
	}
	out := make([]byte, 0, ref.Len)
	pos := ref.Off
	for _, pg := range pages {
		if len(out) == ref.Len {
			break
		}
		if pg == nil {
			pg = make([]byte, disk.PageSize)
		}
		take := ref.Len - len(out)
		if take > disk.PageSize-pos {
			take = disk.PageSize - pos
		}
		if pos+take > len(pg) {
			panic(fmt.Sprintf("pagefile: short page while reading %+v", ref))
		}
		out = append(out, pg[pos:pos+take]...)
		pos = 0
	}
	if len(out) != ref.Len {
		panic(fmt.Sprintf("pagefile: assembled %d of %d bytes for %+v", len(out), ref.Len, ref))
	}
	return out
}

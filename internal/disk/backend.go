package disk

import "fmt"

// Backend is the physical page store behind a Disk. The Disk owns the
// paper's cost model — seeks, rotational delays and page transfers are
// charged per request regardless of the backend — while the backend owns the
// bytes: where pages physically live and what real I/O (if any) moving them
// costs. Two implementations exist:
//
//   - the in-memory MemBackend (the default), which keeps the page array of
//     the original simulated disk and performs no real I/O, and
//   - the file-backed store in internal/disk/filebackend, which maps pages
//     onto a scratch os.File (page id × PageSize) and reports measured
//     wall-clock I/O next to the model.
//
// Neither is durable: a backend starts empty and its pages die with it. A
// store's durable copies are its snapshot and its write-ahead log.
//
// Contract: the Disk serializes all backend calls through its own lock —
// WriteRun, Alloc and Free are called with the write lock held,
// ReadRun and NumPages with at least the read lock — so a backend needs no
// internal synchronization for the page data itself. Only the Measured
// counters must tolerate concurrent ReadRun callers (the parallel query
// engine reads under the shared read lock).
type Backend interface {
	// NumPages returns the current backend size in pages.
	NumPages() PageID
	// Alloc extends the backend by n fresh pages and returns the ID of the
	// first new page. Fresh pages read as zero.
	Alloc(n int) PageID
	// Free declares the run [start, start+n) unused. It is a reclamation
	// hint, not a shrink: page IDs stay valid and later reads of a freed
	// page return zeroes or stale bytes — callers must never read a page
	// they have not rewritten (the extent allocator guarantees this).
	Free(start PageID, n int)
	// ReadRun sets pages[i] to the contents of page start+i, for the
	// len(pages) consecutive pages from start. The page slice is the
	// caller's — a query's scratch, reused for its next read — and the
	// backend keeps no reference to it and allocates no page slice of its
	// own (only the bytes it reads, where it has to). Page contents may alias
	// backend storage and must not be modified — nor may the backend ever
	// rewrite that storage under a reader: WriteRun replaces a page's slice
	// (the immutability contract of internal/buffer rests on it). Pages
	// never written may be returned as nil (all-zero).
	ReadRun(start PageID, pages [][]byte)
	// WriteRun stores data[i] into page start+i and keeps each slice: the
	// writer built it as the page's one copy and never writes it again
	// (internal/buffer, "Page immutability", says who copies). Each slice is
	// at most PageSize bytes; a shorter one reads as if zero-padded, a nil
	// one clears the page.
	WriteRun(start PageID, data [][]byte)
	// Close releases backend resources. The backend must not be used after.
	Close() error
	// Measured reports the wall-clock I/O the backend has really performed,
	// for modelled-vs-measured comparisons. The memory backend reports
	// zeroes.
	Measured() Measured
}

// Measured tallies real (wall-clock) backend I/O, the counterpart of the
// modelled Cost. clusterbench -exp backend reports the two side by side.
type Measured struct {
	Reads        int64 // read calls issued to the medium
	Writes       int64 // write calls issued to the medium
	PagesRead    int64 // pages transferred medium -> memory
	PagesWritten int64 // pages transferred memory -> medium
	ReadNS       int64 // wall-clock nanoseconds spent reading
	WriteNS      int64 // wall-clock nanoseconds spent writing
}

// Sub returns the component-wise difference m − o; use it to measure one
// operation from two snapshots.
func (m Measured) Sub(o Measured) Measured {
	return Measured{
		Reads:        m.Reads - o.Reads,
		Writes:       m.Writes - o.Writes,
		PagesRead:    m.PagesRead - o.PagesRead,
		PagesWritten: m.PagesWritten - o.PagesWritten,
		ReadNS:       m.ReadNS - o.ReadNS,
		WriteNS:      m.WriteNS - o.WriteNS,
	}
}

// IOSeconds returns the total wall-clock seconds spent in backend I/O.
func (m Measured) IOSeconds() float64 {
	return float64(m.ReadNS+m.WriteNS) / 1e9
}

// MemBackend is the default Backend: a linear page array in memory, the
// storage of the paper's simulated disk. All I/O is free in wall-clock terms;
// only the Disk's modelled cost applies.
type MemBackend struct {
	pages [][]byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// NumPages implements Backend.
func (b *MemBackend) NumPages() PageID { return PageID(len(b.pages)) }

// Alloc implements Backend.
func (b *MemBackend) Alloc(n int) PageID {
	first := PageID(len(b.pages))
	b.pages = append(b.pages, make([][]byte, n)...)
	return first
}

// Free implements Backend: the page contents are released so freed runs do
// not pin memory; the IDs remain valid and read as zero until rewritten.
func (b *MemBackend) Free(start PageID, n int) {
	for i := 0; i < n; i++ {
		b.pages[start+PageID(i)] = nil
	}
}

// ReadRun implements Backend. The page contents alias the stored pages.
func (b *MemBackend) ReadRun(start PageID, pages [][]byte) {
	copy(pages, b.pages[start:])
}

// WriteRun implements Backend, keeping each page as it is given.
func (b *MemBackend) WriteRun(start PageID, data [][]byte) {
	copy(b.pages[start:], data)
}

// Close implements Backend.
func (b *MemBackend) Close() error { return nil }

// Measured implements Backend: the memory backend performs no real I/O.
func (b *MemBackend) Measured() Measured { return Measured{} }

// checkBackendRun validates a run against a backend's size; shared by Disk
// and backend tests.
func checkBackendRun(b Backend, start PageID, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("disk: empty run [%d,+%d)", start, n))
	}
	if start < 0 || start+PageID(n) > b.NumPages() {
		panic(fmt.Sprintf("disk: run [%d,+%d) outside disk of %d pages",
			start, n, b.NumPages()))
	}
}

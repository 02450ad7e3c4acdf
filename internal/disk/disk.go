package disk

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is the modelled magnetic disk: a linear array of 4 KB pages plus the
// cost accountant. The pages themselves live in a pluggable Backend (in
// memory by default, in a real file via internal/disk/filebackend); the cost
// model is identical for every backend, so modelled numbers can be compared
// against the backend's measured wall-clock I/O. The head position is
// tracked so that a write request starting exactly where the previous one
// ended streams on without seek or latency; anything else pays at least a
// rotational delay, and a full seek unless the request is chained to an
// uninterrupted access of the same storage unit.
//
// Concurrency: cost accounting is atomic and backend access is guarded by a
// read-write lock, so any number of concurrent readers can share one disk
// (concurrent queries and the parallel join rely on this). The cost model
// itself still serializes requests ("such a read request will not be
// interrupted by other requests", paper section 3.1): a Cost snapshot taken
// while requests are in flight may be torn across components, and the
// write-streaming discount is only meaningful for the single-threaded
// construction phase. An operation that needs its own cost under concurrency
// passes a Tally to ReadRun or WriteRun: a read's modelled cost does not
// depend on the head, so the tally is exact whatever runs beside it.
type Disk struct {
	params Params

	mu    sync.RWMutex // guards the backend
	b     Backend
	timed bool // the backend does real I/O: tallies get its wall clock

	head atomic.Int64 // page following the last transferred one

	// throttle holds the float64 bits of the wall-clock throttle factor:
	// every charged request additionally sleeps its modelled time times this
	// factor. Zero (the default) disables sleeping entirely.
	throttle atomic.Uint64

	// Cost components, updated atomically.
	seeks         atomic.Int64
	rotations     atomic.Int64
	pagesRead     atomic.Int64
	pagesWritten  atomic.Int64
	readRequests  atomic.Int64
	writeRequests atomic.Int64
}

// New creates an empty in-memory disk with the given timing parameters.
func New(params Params) *Disk { return NewWithBackend(params, NewMemBackend()) }

// NewDefault creates an empty in-memory disk with the paper's timing
// parameters.
func NewDefault() *Disk { return New(DefaultParams()) }

// NewWithBackend creates a disk whose pages live in the given backend. The
// cost model charges the same modelled time regardless of the backend.
func NewWithBackend(params Params, b Backend) *Disk {
	if b == nil {
		b = NewMemBackend()
	}
	_, mem := b.(*MemBackend)
	return &Disk{params: params, b: b, timed: !mem}
}

// Params returns the timing parameters of the disk.
func (d *Disk) Params() Params { return d.params }

// Backend returns the physical page store behind the disk.
func (d *Disk) Backend() Backend { return d.b }

// NumPages returns the current size of the disk in pages.
func (d *Disk) NumPages() PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.b.NumPages()
}

// Grow extends the disk by n pages and returns the ID of the first new page.
// Growing models formatting fresh cylinders; it costs nothing.
func (d *Disk) Grow(n int) PageID {
	if n < 0 {
		panic("disk: negative Grow")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.b.Alloc(n)
}

// FreeRun tells the backend that the run [start, start+n) is unused, so it
// can release the memory or punch a hole in the backing file. Like Grow it
// models file-system bookkeeping and charges no I/O; the extent allocator
// calls it when an extent is returned.
func (d *Disk) FreeRun(start PageID, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	checkBackendRun(d.b, start, n)
	d.b.Free(start, n)
}

// Close releases the backend. The disk must not be used afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.b.Close()
}

// Measured reports the backend's real wall-clock I/O counters (all zero for
// the in-memory backend).
func (d *Disk) Measured() Measured { return d.b.Measured() }

// Cost returns a snapshot of the accumulated I/O cost.
func (d *Disk) Cost() Cost {
	return Cost{
		Seeks:         d.seeks.Load(),
		Rotations:     d.rotations.Load(),
		PagesRead:     d.pagesRead.Load(),
		PagesWritten:  d.pagesWritten.Load(),
		ReadRequests:  d.readRequests.Load(),
		WriteRequests: d.writeRequests.Load(),
	}
}

// ResetCost clears the accumulated I/O cost (e.g. between the construction
// and the query phase of an experiment).
func (d *Disk) ResetCost() {
	d.seeks.Store(0)
	d.rotations.Store(0)
	d.pagesRead.Store(0)
	d.pagesWritten.Store(0)
	d.readRequests.Store(0)
	d.writeRequests.Store(0)
}

// TimeMS returns the modelled time of the accumulated cost in milliseconds.
func (d *Disk) TimeMS() float64 { return d.Cost().TimeMS(d.params) }

// SetThrottle makes every subsequent request sleep its modelled time times
// factor, turning the cost model into a wall-clock simulation: a throttled
// disk behaves like real hardware that is `1/factor` times faster than the
// paper's 1994 drive (factor 1 replays the modelled times exactly; factor
// 0.002 compresses a 15 ms request to 30 µs). Zero — the default — disables
// sleeping. The serving benchmark uses this to make the server I/O-bound the
// way the paper's hardware was, so that multiplexing concurrent queries onto
// the worker pool yields real wall-clock gains; cost accounting and query
// answers are completely unaffected.
func (d *Disk) SetThrottle(factor float64) {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("disk: bad throttle factor %v", factor))
	}
	d.throttle.Store(math.Float64bits(factor))
}

// Throttle returns the current wall-clock throttle factor (zero = off).
func (d *Disk) Throttle() float64 {
	return math.Float64frombits(d.throttle.Load())
}

// throttleSleep sleeps the throttled share of one request's modelled time.
// It must be called after all disk locks are released, so concurrent
// requests overlap their sleeps exactly like independent in-flight I/Os.
func (d *Disk) throttleSleep(requestMS float64) {
	f := d.Throttle()
	if f == 0 || requestMS <= 0 {
		return
	}
	time.Sleep(time.Duration(requestMS * f * float64(time.Millisecond)))
}

// chargeRead accounts one read request of n consecutive pages starting at
// start and returns the modelled time of this request in milliseconds (the
// throttle sleeps that long, scaled). chained marks a follow-up request
// within an uninterrupted access to the same storage unit (no extra seek).
// Reads follow the paper's formulas exactly: a fresh request always pays
// seek and latency (tcompl = ts + tl + size·tt, section 5.4.1), with no
// head-position streaming discount.
func (d *Disk) chargeRead(start PageID, n int, chained bool, t *Tally) float64 {
	ms := d.params.LatencyMS + float64(n)*d.params.TransferMS
	c := Cost{Rotations: 1, PagesRead: int64(n), ReadRequests: 1}
	if !chained {
		c.Seeks = 1
		ms += d.params.SeekMS
	}
	d.charge(c, t)
	d.head.Store(int64(start) + int64(n))
	return ms
}

// chargeWrite accounts one write request. Unlike reads, a write starting
// exactly at the head position streams on for free: this models the buffered
// sequential writing of construction (appending to a sequential file or
// writing out a freshly split cluster unit back-to-back).
func (d *Disk) chargeWrite(start PageID, n int, t *Tally) float64 {
	ms := float64(n) * d.params.TransferMS
	c := Cost{PagesWritten: int64(n), WriteRequests: 1}
	if int64(start) != d.head.Load() { // else a streaming continuation: the head is already there
		c.Seeks, c.Rotations = 1, 1
		ms += d.params.SeekMS + d.params.LatencyMS
	}
	d.charge(c, t)
	d.head.Store(int64(start) + int64(n))
	return ms
}

// charge adds one request's cost to the global counters and to t, if any.
func (d *Disk) charge(c Cost, t *Tally) {
	if c.Seeks != 0 {
		d.seeks.Add(c.Seeks)
	}
	if c.Rotations != 0 {
		d.rotations.Add(c.Rotations)
	}
	if c.PagesRead != 0 {
		d.pagesRead.Add(c.PagesRead)
		d.readRequests.Add(c.ReadRequests)
	}
	if c.PagesWritten != 0 {
		d.pagesWritten.Add(c.PagesWritten)
		d.writeRequests.Add(c.WriteRequests)
	}
	if t != nil {
		t.Cost = t.Cost.Add(c)
	}
}

// ReadRun issues one read request for the len(pages) physically
// consecutive pages from start and sets pages[i] to the contents of page
// start+i. pages is the caller's: nothing is allocated, and the disk keeps no
// reference to it. Unwritten pages read as nil. The contents may alias
// backend storage and must not be modified. The request is also charged to t;
// a nil t charges the global counters alone. A chained request is a follow-up
// within an uninterrupted access to one storage unit: it is charged a
// rotational delay but no seek (paper section 5.4.3).
func (d *Disk) ReadRun(start PageID, pages [][]byte, chained bool, t *Tally) {
	d.throttleSleep(d.readRunLocked(start, pages, chained, t)) // after unlocking: concurrent sleeps overlap
}

func (d *Disk) readRunLocked(start PageID, pages [][]byte, chained bool, t *Tally) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	checkBackendRun(d.b, start, len(pages))
	ms := d.chargeRead(start, len(pages), chained, t)
	if t == nil || !d.timed {
		d.b.ReadRun(start, pages)
		return ms
	}
	t0 := time.Now()
	d.b.ReadRun(start, pages)
	t.BackendNS += time.Since(t0).Nanoseconds()
	return ms
}

// WriteRun issues one write request for n physically consecutive pages.
// data[i] is written to page start+i; each slice must be at most PageSize
// bytes and is handed over to the backend (see Backend.WriteRun): the caller
// never writes it again. A nil slice clears the page. The request is also
// charged to t; a nil t charges the global counters alone.
func (d *Disk) WriteRun(start PageID, data [][]byte, t *Tally) {
	d.throttleSleep(d.writeRunLocked(start, data, t)) // after unlocking, like reads
}

func (d *Disk) writeRunLocked(start PageID, data [][]byte, t *Tally) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	checkBackendRun(d.b, start, len(data))
	checkPageSizes(data)
	ms := d.chargeWrite(start, len(data), t)
	if t == nil || !d.timed {
		d.b.WriteRun(start, data)
		return ms
	}
	t0 := time.Now()
	d.b.WriteRun(start, data)
	t.BackendNS += time.Since(t0).Nanoseconds()
	return ms
}

// WritePage issues one write request for a single page.
func (d *Disk) WritePage(id PageID, data []byte) {
	d.WriteRun(id, [][]byte{data}, nil)
}

func checkPageSizes(data [][]byte) {
	for _, buf := range data {
		if len(buf) > PageSize {
			panic(fmt.Sprintf("disk: page data of %d bytes exceeds page size", len(buf)))
		}
	}
}

// Peek returns the content of a page without charging any I/O cost. It is
// intended for assertions, tests and snapshotting; production query paths
// must use ReadRun.
func (d *Disk) Peek(id PageID) []byte {
	page := [][]byte{nil}
	d.PeekRun(id, page)
	return page[0]
}

// PeekRun is Peek for len(pages) consecutive pages, filled like ReadRun: one
// uncharged backend read for the whole run. Snapshotting uses it to dump the
// disk in large batches instead of one backend call per page.
func (d *Disk) PeekRun(start PageID, pages [][]byte) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	checkBackendRun(d.b, start, len(pages))
	d.b.ReadRun(start, pages)
}

// Poke stores a copy of data as page id without charging any I/O cost. For
// tests and snapshot restoration; production paths must use WriteRun.
func (d *Disk) Poke(id PageID, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	checkBackendRun(d.b, id, 1)
	checkPageSizes([][]byte{data})
	d.b.WriteRun(id, [][]byte{bytes.Clone(data)})
}

// Head returns the current head position (the page following the last
// transferred page).
func (d *Disk) Head() PageID { return PageID(d.head.Load()) }

// SetHead positions the head without charging any cost. Snapshot restoration
// uses it so a reopened disk charges subsequent writes exactly like the disk
// it was saved from (the head decides the write-streaming discount).
func (d *Disk) SetHead(id PageID) { d.head.Store(int64(id)) }

package disk

import "fmt"

// PageSize is the size of one disk page in bytes (paper section 5.1).
const PageSize = 4096

// PageID addresses a page on a disk. Two pages are physically consecutive
// iff their IDs differ by one.
type PageID int64

// InvalidPage is a sentinel for "no page".
const InvalidPage PageID = -1

// Params holds the disk timing parameters in milliseconds.
type Params struct {
	SeekMS     float64 // average seek time ts
	LatencyMS  float64 // average rotational delay tl
	TransferMS float64 // transfer time tt for one page
}

// DefaultParams are the values of the paper's test environment
// (section 5.1, after [HS94]): ts = 9 ms, tl = 6 ms, tt = 1 ms per 4 KB page.
func DefaultParams() Params {
	return Params{SeekMS: 9, LatencyMS: 6, TransferMS: 1}
}

// SLMGapLength returns l = tl/tt − 1/2, the break-even sequence length of the
// SLM read-schedule technique [SLM93] (paper section 5.4.2): a run of up to l
// non-requested pages is cheaper to read through than to skip with an extra
// rotational delay.
func (p Params) SLMGapLength() int {
	l := p.LatencyMS/p.TransferMS - 0.5
	if l < 0 {
		return 0
	}
	return int(l)
}

// Cost is a tally of I/O work. It is a plain value: snapshot, subtract and
// add as needed.
type Cost struct {
	Seeks         int64 // number of seek operations
	Rotations     int64 // number of rotational delays
	PagesRead     int64 // pages transferred disk -> memory
	PagesWritten  int64 // pages transferred memory -> disk
	ReadRequests  int64 // number of read requests issued
	WriteRequests int64 // number of write requests issued
}

// Tally is what one operation consumed from the layers below, kept by the
// operation itself: the disk and the buffer add to it beside their global
// counters whenever a caller passes one. It holds the modelled cost of every
// request the operation issued — its reads and the write-backs its buffer
// misses forced — its buffer hits and misses, the wall-clock time the backend
// spent on those requests, and how long it waited for its store's lock. No
// request is charged to two tallies, so the tallies of concurrent operations
// sum to the global counters' deltas, and an operation run alone has the
// deltas for its tally.
type Tally struct {
	Cost       Cost
	Hits       int64 // buffer requests satisfied from memory
	Misses     int64 // buffer requests that went to the disk
	BackendNS  int64 // wall-clock backend I/O (zero on the memory backend)
	LockWaitNS int64 // wall-clock wait for the store's lock
}

// Add returns the component-wise sum of c and d.
func (c Cost) Add(d Cost) Cost {
	return Cost{
		Seeks:         c.Seeks + d.Seeks,
		Rotations:     c.Rotations + d.Rotations,
		PagesRead:     c.PagesRead + d.PagesRead,
		PagesWritten:  c.PagesWritten + d.PagesWritten,
		ReadRequests:  c.ReadRequests + d.ReadRequests,
		WriteRequests: c.WriteRequests + d.WriteRequests,
	}
}

// Sub returns the component-wise difference c − d; use it to measure the
// cost of an operation from two snapshots.
func (c Cost) Sub(d Cost) Cost {
	return Cost{
		Seeks:         c.Seeks - d.Seeks,
		Rotations:     c.Rotations - d.Rotations,
		PagesRead:     c.PagesRead - d.PagesRead,
		PagesWritten:  c.PagesWritten - d.PagesWritten,
		ReadRequests:  c.ReadRequests - d.ReadRequests,
		WriteRequests: c.WriteRequests - d.WriteRequests,
	}
}

// Pages returns the total number of transferred pages.
func (c Cost) Pages() int64 { return c.PagesRead + c.PagesWritten }

// TimeMS returns the modelled I/O time of c in milliseconds under params p.
func (c Cost) TimeMS(p Params) float64 {
	return float64(c.Seeks)*p.SeekMS +
		float64(c.Rotations)*p.LatencyMS +
		float64(c.Pages())*p.TransferMS
}

// TimeSec returns the modelled I/O time in seconds.
func (c Cost) TimeSec(p Params) float64 { return c.TimeMS(p) / 1000 }

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("seeks=%d rot=%d read=%d written=%d reqs=%d/%d",
		c.Seeks, c.Rotations, c.PagesRead, c.PagesWritten,
		c.ReadRequests, c.WriteRequests)
}

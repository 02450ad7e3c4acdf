package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// IO is the resource attribution of one span: what the stage consumed from
// the layers below. A query's execute span is the query's own tally (the
// store counts each request it causes, disk.Tally); a traced mutation batch's
// apply span is the delta of the buffer, disk and WAL counters the dispatcher
// snapshots around the batch, which holds the store alone.
type IO struct {
	BufferHits   int64 `json:"buffer_hits,omitempty"`
	BufferMisses int64 `json:"buffer_misses,omitempty"`
	// PagesRead and ReadRequests are modelled disk counters; ModelMS is the
	// modelled time the paper's cost formulas charge for them.
	PagesRead    int64   `json:"pages_read,omitempty"`
	ReadRequests int64   `json:"read_requests,omitempty"`
	ModelMS      float64 `json:"model_ms,omitempty"`
	// MeasuredNS is real backend wall-clock I/O (zero on the memory backend).
	MeasuredNS int64 `json:"measured_ns,omitempty"`
	// WAL counters (mutations only): appended bytes, fsyncs and their
	// wall-clock cost.
	WALBytes  int64 `json:"wal_bytes,omitempty"`
	WALSyncs  int64 `json:"wal_syncs,omitempty"`
	WALSyncNS int64 `json:"wal_sync_ns,omitempty"`
}

// Span is one attributed stage of a traced request. ID and Parent link the
// spans of one trace into a tree: Parent 0 hangs a span off the trace root,
// any other value names another span of the same trace. Count and Bound are
// optional per-stage annotations (the router uses Count for fan-out widths
// and shard indexes, Bound for the k-NN global bound after a wave).
type Span struct {
	ID      uint32  `json:"id,omitempty"`
	Parent  uint32  `json:"parent,omitempty"`
	Stage   string  `json:"stage"`
	StartMS float64 `json:"start_ms"` // offset from the trace's start
	DurMS   float64 `json:"dur_ms"`
	Count   int64   `json:"count,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	IO      *IO     `json:"io,omitempty"`
}

// traceSeq assigns process-unique trace IDs; seeding it from the start time
// keeps IDs distinct across daemon restarts (they are correlation handles,
// never persisted state).
var traceSeq atomic.Uint64

func init() { traceSeq.Store(uint64(time.Now().UnixNano())) }

// Trace carries the spans of one request through handler, dispatcher and
// worker — and, assembled by a gateway, across a cluster. All methods are
// safe on a nil receiver (they do nothing), so untraced requests thread a
// nil *Trace through the same code path for free. A Trace may be appended to
// from different goroutines (the router's scatter does).
type Trace struct {
	id    uint64
	start time.Time

	mu       sync.Mutex
	nextSpan uint32
	spans    []Span
}

// NewTrace starts a trace clocked from now with a fresh process-unique ID.
func NewTrace() *Trace {
	return &Trace{id: traceSeq.Add(1), start: time.Now()}
}

// NewTraceWithID starts a trace that adopts a propagated trace ID — the
// shard side of a distributed trace joins the gateway's identity instead of
// minting its own.
func NewTraceWithID(id uint64) *Trace {
	if id == 0 {
		return NewTrace()
	}
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's identity (zero on nil).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Start returns the trace's start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// NewSpanID reserves a span ID, so a parent recorded after its children (the
// scatter span closes last) can hand its identity out first. Returns 0 on a
// nil trace — the value every untraced code path threads through for free.
func (t *Trace) NewSpanID() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	return t.nextSpan
}

// Observe appends a span for a stage that ran [start, start+d).
func (t *Trace) Observe(stage string, start time.Time, d time.Duration) {
	t.ObserveIO(stage, start, d, nil)
}

// ObserveIO appends a root-level span with resource attribution. A nil io
// records a plain timing span; an all-zero *io is dropped to nil to keep
// traces small.
func (t *Trace) ObserveIO(stage string, start time.Time, d time.Duration, io *IO) {
	t.ObserveAs(t.NewSpanID(), 0, stage, start, d, 0, 0, io)
}

// ObserveAs appends a fully-specified span: identity, parent, and the
// optional count/bound annotations. The span ID should come from NewSpanID;
// parent 0 hangs the span off the trace root.
func (t *Trace) ObserveAs(id, parent uint32, stage string, start time.Time, d time.Duration, count int64, bound float64, io *IO) {
	if t == nil {
		return
	}
	if io != nil && *io == (IO{}) {
		io = nil
	}
	sp := Span{
		ID:      id,
		Parent:  parent,
		Stage:   stage,
		StartMS: start.Sub(t.start).Seconds() * 1000,
		DurMS:   d.Seconds() * 1000,
		Count:   count,
		Bound:   bound,
		IO:      io,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Graft attaches a remote sub-trace's spans under the local span parent:
// the sub-trace's span IDs are remapped past the local counter (preserving
// its internal parent links), its root-level spans re-parented onto parent,
// and every start offset rebased by offsetMS — the local clock position the
// remote trace started at. The remote and local clocks are never compared
// directly, so a grafted tree is internally consistent even across hosts.
func (t *Trace) Graft(parent uint32, offsetMS float64, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextSpan
	var maxID uint32
	for _, sp := range spans {
		if sp.ID > maxID {
			maxID = sp.ID
		}
	}
	t.nextSpan += maxID
	for _, sp := range spans {
		if sp.ID != 0 {
			sp.ID += base
		} else {
			t.nextSpan++
			sp.ID = t.nextSpan
		}
		if sp.Parent != 0 {
			sp.Parent += base
		} else {
			sp.Parent = parent
		}
		sp.StartMS += offsetMS
		t.spans = append(t.spans, sp)
	}
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// TotalMS returns the wall-clock milliseconds since the trace started.
func (t *Trace) TotalMS() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Seconds() * 1000
}

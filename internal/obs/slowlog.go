package obs

import (
	"sync"
	"time"
)

// SlowEntry is one logged slow request.
type SlowEntry struct {
	Seq      int64     `json:"seq"` // monotone, 1-based, across ring evictions
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`
	Time     time.Time `json:"time"` // request start
	WallMS   float64   `json:"wall_ms"`
	QueueMS  float64   `json:"queue_ms,omitempty"` // query: organization lock wait; mutation: dispatcher queue wait
	ExecMS   float64   `json:"exec_ms,omitempty"`  // store execution
	Shard    string    `json:"shard,omitempty"`    // router: slowest shard touched
}

// SlowLog is a bounded ring of the slowest recent requests: every completed
// request whose wall time reaches the threshold is kept, newest evicting
// oldest. Recording takes a short mutex on the slow path only — the threshold
// check happens before any locking, so fast requests pay one comparison.
type SlowLog struct {
	threshold time.Duration // negative: disabled

	mu    sync.Mutex
	ring  []SlowEntry
	next  int   // ring write position
	total int64 // entries ever recorded
}

// NewSlowLog builds a ring of the given capacity (default 128 when cap <= 0).
// threshold < 0 disables recording entirely; threshold == 0 records every
// request (useful for tests and scrape validation).
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the recording threshold.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Note records e when its wall time reaches the threshold. Seq is assigned
// here.
func (l *SlowLog) Note(e SlowEntry) {
	if l == nil || l.threshold < 0 {
		return
	}
	if e.WallMS < l.threshold.Seconds()*1000 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	e.Seq = l.total
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		l.next = len(l.ring) % cap(l.ring)
		return
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % cap(l.ring)
}

// Total returns how many entries were ever recorded (including evicted ones).
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	for i := 1; i <= len(l.ring); i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

package server

import (
	"sort"
	"sync/atomic"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/obs"
)

// EndpointMetrics are the latency counters of one endpoint as reported in the
// /metrics JSON body.
type EndpointMetrics struct {
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"` // 4xx/5xx answers (429 counted separately)
	Rejected int64   `json:"rejected"`
	TotalMS  float64 `json:"total_ms"`
	MaxMS    float64 `json:"max_ms"`
	MeanMS   float64 `json:"mean_ms"`
	LastMS   float64 `json:"last_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// Metrics is the body of GET /metrics: everything the operator needs to see
// whether the paper's cost rankings survive sustained load.
type Metrics struct {
	Org     string        `json:"org"`
	Uptime  float64       `json:"uptime_sec"`
	Storage StatsResponse `json:"storage"`

	// Buffer behaviour since the server started serving.
	BufferHits     int64   `json:"buffer_hits"`
	BufferMisses   int64   `json:"buffer_misses"`
	BufferHitRatio float64 `json:"buffer_hit_ratio"`

	// Modelled I/O charged so far (the paper's metric) next to the real
	// wall-clock I/O the backend performed (zero on the memory backend).
	ModelCost     disk.Cost `json:"model_cost"`
	ModelIOSec    float64   `json:"model_io_sec"`
	MeasuredIOSec float64   `json:"measured_io_sec"`
	MeasuredReads int64     `json:"measured_reads"`
	Throttle      float64   `json:"throttle"`

	// Batch shape: how many batches ran — each query execution is a batch
	// of one, each dispatcher batch of mutations one — how many requests
	// they carried, and the largest batch observed.
	Batches     int64   `json:"batches"`
	BatchedJobs int64   `json:"batched_queries"`
	MeanBatch   float64 `json:"mean_batch"`
	MaxBatch    int64   `json:"max_batch"`
	InFlight    int     `json:"in_flight"`
	MaxInFlight int     `json:"max_in_flight"`
	Rejected    int64   `json:"rejected_total"` // 429 answers

	// Slow-query log shape: entries ever recorded and the threshold.
	SlowLogTotal int64   `json:"slowlog_total"`
	SlowLogMS    float64 `json:"slowlog_threshold_ms"`

	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// endpointCounters are the live counters of one endpoint. Everything is
// atomic so recording never contends with scraping: a request on the hot path
// does a handful of uncontended atomic adds, and a /metrics scrape reads
// snapshots without stalling anything.
type endpointCounters struct {
	count    atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
	totalNS  atomic.Int64
	lastNS   atomic.Int64
	maxNS    atomic.Int64
	hist     obs.Histogram
}

func (c *endpointCounters) observe(d time.Duration, isErr bool) {
	ns := d.Nanoseconds()
	c.count.Add(1)
	if isErr {
		c.errors.Add(1)
	}
	c.totalNS.Add(ns)
	c.lastNS.Store(ns)
	for {
		old := c.maxNS.Load()
		if ns <= old || c.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	c.hist.Observe(d)
}

// each visits, in sorted path order, the endpoints that have seen a request.
func (f *Front) each(fn func(path string, c *endpointCounters)) {
	paths := make([]string, 0, len(f.endpoints))
	for path, c := range f.endpoints {
		if c.count.Load()+c.rejected.Load() > 0 {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		fn(path, &f.endpoints[path].endpointCounters)
	}
}

// Snapshot fills the fields of a Metrics value the Front owns: uptime,
// admission state, slow-query log shape and the per-endpoint counters.
func (f *Front) Snapshot(out *Metrics) {
	out.Uptime = time.Since(f.start).Seconds()
	out.InFlight = len(f.inflight)
	out.MaxInFlight = f.maxInFlight
	out.SlowLogTotal = f.slow.Total()
	out.SlowLogMS = f.slow.Threshold().Seconds() * 1000
	out.Endpoints = make(map[string]EndpointMetrics)
	f.each(func(path string, c *endpointCounters) {
		ep := EndpointMetrics{
			Count:    c.count.Load(),
			Errors:   c.errors.Load(),
			Rejected: c.rejected.Load(),
			TotalMS:  float64(c.totalNS.Load()) / 1e6,
			MaxMS:    float64(c.maxNS.Load()) / 1e6,
			LastMS:   float64(c.lastNS.Load()) / 1e6,
		}
		if ep.Count > 0 {
			ep.MeanMS = ep.TotalMS / float64(ep.Count)
			s := c.hist.Snapshot()
			ep.P50MS = s.Quantile(0.50).Seconds() * 1000
			ep.P95MS = s.Quantile(0.95).Seconds() * 1000
			ep.P99MS = s.Quantile(0.99).Seconds() * 1000
		}
		out.Rejected += ep.Rejected
		out.Endpoints[path] = ep
	})
}

// batchCounters are the batch shape, written by queries and the dispatcher.
type batchCounters struct {
	batches     atomic.Int64
	batchedJobs atomic.Int64
	maxBatch    atomic.Int64
}

// batch tallies one batch of n requests: a query, or a dispatcher batch.
func (m *batchCounters) batch(n int) {
	m.batches.Add(1)
	m.batchedJobs.Add(int64(n))
	for {
		old := m.maxBatch.Load()
		if int64(n) <= old || m.maxBatch.CompareAndSwap(old, int64(n)) {
			break
		}
	}
}

// snapshot fills the batch-shape fields of a Metrics value.
func (m *batchCounters) snapshot(out *Metrics) {
	out.Batches = m.batches.Load()
	out.BatchedJobs = m.batchedJobs.Load()
	out.MaxBatch = m.maxBatch.Load()
	if out.Batches > 0 {
		out.MeanBatch = float64(out.BatchedJobs) / float64(out.Batches)
	}
}

// fillBuffer derives the buffer ratio fields from a buffer.Stats snapshot.
func fillBuffer(out *Metrics, st buffer.Stats) {
	out.BufferHits, out.BufferMisses = st.Hits, st.Misses
	if total := st.Hits + st.Misses; total > 0 {
		out.BufferHitRatio = float64(st.Hits) / float64(total)
	}
}

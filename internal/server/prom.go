package server

import (
	"net/http"
	"strings"
	"time"

	"spatialcluster/internal/obs"
	"spatialcluster/internal/wal"
)

// Prometheus exposition of /metrics. The JSON body stays the default and the
// source of truth; this file maps the same numbers to text exposition format
// 0.0.4 so a stock Prometheus server can scrape sdbd and sdbrouter with no
// adapter. The families every Front has come from WriteProm under the
// owner's prefix; the server's own follow in writeProm.

// PromWanted decides the /metrics representation: ?format=prom (or json)
// wins; otherwise an Accept header asking for text/plain — what a Prometheus
// scraper sends — selects the exposition format. The default stays JSON for
// curl and the existing clients.
func PromWanted(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// WriteProm starts a Prometheus text exposition (format 0.0.4) on w with the
// families the Front owns, named under its prefix; the owner appends its own.
func (f *Front) WriteProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	name := func(family string) string { return f.prefix + "_" + family }

	obs.PromHead(w, name("uptime_seconds"), "Seconds since the process started serving.", "gauge")
	obs.PromSample(w, name("uptime_seconds"), nil, time.Since(f.start).Seconds())

	perEndpoint := func(family, help, typ string, sample func(labels [][2]string, c *endpointCounters)) {
		obs.PromHead(w, name(family), help, typ)
		f.each(func(path string, c *endpointCounters) {
			sample([][2]string{{"endpoint", path}}, c)
		})
	}
	perEndpoint("requests_total", "Completed requests by endpoint.", "counter",
		func(l [][2]string, c *endpointCounters) {
			obs.PromSample(w, name("requests_total"), l, float64(c.count.Load()))
		})
	perEndpoint("request_errors_total", "4xx/5xx answers by endpoint (429 excluded).", "counter",
		func(l [][2]string, c *endpointCounters) {
			obs.PromSample(w, name("request_errors_total"), l, float64(c.errors.Load()))
		})
	perEndpoint("requests_rejected_total", "429 admission rejections by endpoint.", "counter",
		func(l [][2]string, c *endpointCounters) {
			obs.PromSample(w, name("requests_rejected_total"), l, float64(c.rejected.Load()))
		})
	perEndpoint("request_duration_seconds", "Request latency by endpoint.", "histogram",
		func(l [][2]string, c *endpointCounters) {
			obs.PromHistogram(w, name("request_duration_seconds"), l, c.hist.Snapshot())
		})

	obs.PromHead(w, name("in_flight"), "Requests currently admitted.", "gauge")
	obs.PromSample(w, name("in_flight"), nil, float64(len(f.inflight)))
	obs.PromHead(w, name("max_in_flight"), "Admission limit.", "gauge")
	obs.PromSample(w, name("max_in_flight"), nil, float64(f.maxInFlight))
	obs.PromHead(w, name("slowlog_total"), "Slow-query log entries ever recorded.", "counter")
	obs.PromSample(w, name("slowlog_total"), nil, float64(f.slow.Total()))
}

// writeProm renders m — already fully filled, handleMetrics does that for
// both representations — as the server's exposition.
func (s *Server) writeProm(w http.ResponseWriter, m *Metrics) {
	s.front.WriteProm(w)
	obs.PromHead(w, "sdb_info", "Served storage organization.", "gauge")
	obs.PromSample(w, "sdb_info", [][2]string{{"org", m.Org}}, 1)

	obs.PromHead(w, "sdb_batches_total", "Batches executed: one per query, one per dispatcher batch of mutations.", "counter")
	obs.PromSample(w, "sdb_batches_total", nil, float64(m.Batches))
	obs.PromHead(w, "sdb_batched_jobs_total", "Requests carried by batches.", "counter")
	obs.PromSample(w, "sdb_batched_jobs_total", nil, float64(m.BatchedJobs))
	obs.PromHead(w, "sdb_batch_max", "Largest batch observed.", "gauge")
	obs.PromSample(w, "sdb_batch_max", nil, float64(m.MaxBatch))

	obs.PromHead(w, "sdb_buffer_hits_total", "Buffer pool hits.", "counter")
	obs.PromSample(w, "sdb_buffer_hits_total", nil, float64(m.BufferHits))
	obs.PromHead(w, "sdb_buffer_misses_total", "Buffer pool misses.", "counter")
	obs.PromSample(w, "sdb_buffer_misses_total", nil, float64(m.BufferMisses))
	obs.PromHead(w, "sdb_buffer_hit_ratio", "Buffer pool hit ratio since start.", "gauge")
	obs.PromSample(w, "sdb_buffer_hit_ratio", nil, m.BufferHitRatio)

	obs.PromHead(w, "sdb_model_io_seconds_total",
		"Modelled I/O time charged by the paper's cost formulas.", "counter")
	obs.PromSample(w, "sdb_model_io_seconds_total", nil, m.ModelIOSec)
	obs.PromHead(w, "sdb_model_pages_read_total", "Modelled pages read.", "counter")
	obs.PromSample(w, "sdb_model_pages_read_total", nil, float64(m.ModelCost.PagesRead))
	obs.PromHead(w, "sdb_measured_io_seconds_total",
		"Wall-clock backend I/O time (zero on the memory backend).", "counter")
	obs.PromSample(w, "sdb_measured_io_seconds_total", nil, m.MeasuredIOSec)
	obs.PromHead(w, "sdb_measured_reads_total", "Backend read calls performed.", "counter")
	obs.PromSample(w, "sdb_measured_reads_total", nil, float64(m.MeasuredReads))

	obs.PromHead(w, "sdb_objects", "Objects stored.", "gauge")
	obs.PromSample(w, "sdb_objects", nil, float64(m.Storage.Objects))
	obs.PromHead(w, "sdb_occupied_pages", "Pages occupied by the organization.", "gauge")
	obs.PromSample(w, "sdb_occupied_pages", nil, float64(m.Storage.OccupiedPages))

	if m.Storage.WAL != nil {
		wl := m.Storage.WAL
		obs.PromHead(w, "sdb_wal_segments", "Write-ahead log segment files.", "gauge")
		obs.PromSample(w, "sdb_wal_segments", nil, float64(wl.Segments))
		obs.PromHead(w, "sdb_wal_bytes", "Write-ahead log size in bytes.", "gauge")
		obs.PromSample(w, "sdb_wal_bytes", nil, float64(wl.Bytes))
		obs.PromHead(w, "sdb_wal_syncs_total", "Write-ahead log fsyncs.", "counter")
		obs.PromSample(w, "sdb_wal_syncs_total", nil, float64(wl.Syncs))
		obs.PromHead(w, "sdb_wal_last_fsync_seconds", "Duration of the last WAL fsync.", "gauge")
		obs.PromSample(w, "sdb_wal_last_fsync_seconds", nil, wl.LastFsyncMS/1000)
		if ws, ok := s.Organization().(*wal.Store); ok {
			obs.PromHead(w, "sdb_wal_fsync_seconds", "WAL fsync latency.", "histogram")
			obs.PromHistogram(w, "sdb_wal_fsync_seconds", nil, ws.Log().SyncHist().Snapshot())
		}
	}

	obs.PromHead(w, "sdb_throttle", "Wall-clock fraction of modelled I/O time actually slept.", "gauge")
	obs.PromSample(w, "sdb_throttle", nil, m.Throttle)
}

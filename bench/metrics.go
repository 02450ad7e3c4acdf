package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root repeats these tables for the driver; TestBenchmarkJSONMatches keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// on lists the workloads whose layers the metric measures; elsewhere it
	// is reported as 0. Empty means every workload.
	on []string
}

const (
	wEngineRead     = "engine_read"
	wServedRead     = "served_read"
	wServedWrite    = "served_write"
	wClusterScatter = "cluster_scatter"
)

var (
	served  = []string{wServedRead, wServedWrite, wClusterScatter}
	reads   = []string{wEngineRead, wServedRead, wClusterScatter}
	writes  = []string{wServedWrite}
	cluster = []string{wClusterScatter}
)

// endToEnd are the nine metrics a user of the system sees, the same on every
// workload, with the share of the parent's median by which each may worsen.
// README.md derives every bound from the measured noise floor.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "model_io_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.03},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the single-layer metrics of the traced run (prefix = module).
// None is gated; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "geom.ns_per_rect_test", Unit: "ns", Better: "lower"},
	{Name: "geom.ns_per_point_dist", Unit: "ns", Better: "lower", on: reads},
	{Name: "rtree.us_per_search", Unit: "us", Better: "lower"},
	{Name: "rtree.us_per_nearest", Unit: "us", Better: "lower", on: reads},
	{Name: "rtree.pages_per_search", Unit: "count", Better: "lower"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "buffer.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "buffer.ns_per_hit", Unit: "ns", Better: "lower"},
	{Name: "disk.read_requests_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.pages_read_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.pages_written_per_op", Unit: "count", Better: "lower", on: writes},
	{Name: "store.us_per_window", Unit: "us", Better: "lower"},
	{Name: "store.us_per_point", Unit: "us", Better: "lower", on: reads},
	{Name: "store.us_per_knn", Unit: "us", Better: "lower", on: reads},
	{Name: "store.candidates_per_answer", Unit: "ratio", Better: "lower"},
	{Name: "store.build_s", Unit: "s", Better: "lower"},
	{Name: "store.us_per_insert", Unit: "us", Better: "lower", on: writes},
	{Name: "store.us_per_update", Unit: "us", Better: "lower", on: writes},
	{Name: "store.us_per_delete", Unit: "us", Better: "lower", on: writes},
	{Name: "store.dead_byte_share", Unit: "ratio", Better: "lower", on: writes},
	{Name: "wal.us_per_commit", Unit: "us", Better: "lower", on: writes},
	{Name: "wal.fsyncs_per_mutation", Unit: "count", Better: "lower", on: writes},
	{Name: "wal.bytes_per_mutation", Unit: "B", Better: "lower", on: writes},
	{Name: "wal.recover_s", Unit: "s", Better: "lower", on: writes},
	{Name: "binproto.ns_per_encode", Unit: "ns", Better: "lower"},
	{Name: "binproto.ns_per_decode", Unit: "ns", Better: "lower"},
	{Name: "binproto.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.json_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.json_us_per_op", Unit: "us", Better: "lower", on: served},
	{Name: "server.handler_us_per_op", Unit: "us", Better: "lower", on: served},
	{Name: "server.http_us_per_op", Unit: "us", Better: "lower", on: served},
	{Name: "server.mean_batch", Unit: "count", Better: "higher", on: served},
	{Name: "server.batches_per_op", Unit: "count", Better: "lower", on: served},
	{Name: "server.rejected_per_op", Unit: "count", Better: "lower", on: []string{}},
	{Name: "server.exec_share", Unit: "ratio", Better: "higher", on: served},
	{Name: "router.us_per_op", Unit: "us", Better: "lower", on: cluster},
	{Name: "router.fanout_mean", Unit: "count", Better: "lower", on: cluster},
	{Name: "router.knn_waves_mean", Unit: "count", Better: "lower", on: cluster},
	{Name: "router.shard_calls_per_op", Unit: "count", Better: "lower", on: cluster},
	{Name: "router.retries_per_op", Unit: "count", Better: "lower", on: []string{}},
	{Name: "shard.balance_max_over_mean", Unit: "ratio", Better: "lower", on: cluster},
	{Name: "shard.ns_per_overlapping", Unit: "ns", Better: "lower", on: cluster},
	{Name: "obs.trace_overhead_x", Unit: "ratio", Better: "lower", on: served},
	{Name: "snapshot.save_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.open_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "client.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.point_p50_ms", Unit: "ms", Better: "lower", on: reads},
	{Name: "client.knn_p50_ms", Unit: "ms", Better: "lower", on: reads},
	{Name: "client.mutate_p50_ms", Unit: "ms", Better: "lower", on: writes},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.geom_us_per_op", Unit: "us", Better: "lower", on: reads},
	{Name: "ladder.rtree_us_per_op", Unit: "us", Better: "lower", on: reads},
	{Name: "ladder.store_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ladder.wal_us_per_op", Unit: "us", Better: "lower", on: writes},
	{Name: "bench.round_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
}

// measuredOn reports whether the metric's layer runs on the workload.
func (m metricDef) measuredOn(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

package router

import "spatialcluster/internal/server"

// The router speaks the server's wire types for everything a single store
// answers (server.WindowRequest, server.QueryResponse, ...), so a client
// needs no routing awareness. The types here are the router-only additions:
// the aggregated introspection bodies.

// StatsResponse is the body of GET /stats: cluster-wide sums next to every
// shard's own answer.
type StatsResponse struct {
	Shards  int   `json:"shards"`
	Objects int   `json:"objects"`
	Units   int   `json:"units"`
	Bytes   int64 `json:"object_bytes"`
	// PerShard holds each shard's /stats answer, shard order.
	PerShard []server.StatsResponse `json:"per_shard"`
}

// ShardClientMetrics is the router's view of one shard: every typed-client
// exchange it made, the latency quantiles of those exchanges, failures after
// retries gave up, and the retry counters of the shard's client.
type ShardClientMetrics struct {
	Addr   string            `json:"addr"`
	Calls  int64             `json:"calls"`
	Errors int64             `json:"errors"`
	P50MS  float64           `json:"p50_ms"`
	P95MS  float64           `json:"p95_ms"`
	P99MS  float64           `json:"p99_ms"`
	Retry  server.RetryStats `json:"retry"`
}

// MetricsResponse is the body of GET /metrics: the partition, the summed
// shard counters a capacity dashboard needs, the router's own endpoint
// counters, the router's view of each shard client, and every shard's full
// /metrics answer. ?format=prom (or Accept: text/plain) selects the
// Prometheus exposition instead, which carries only the router's own
// families — shards are scraped directly.
type MetricsResponse struct {
	Shards    int     `json:"shards"`
	Partition string  `json:"partition"`
	PadX      float64 `json:"pad_x"`
	PadY      float64 `json:"pad_y"`
	Uptime    float64 `json:"uptime_sec"`
	RoutedIDs int     `json:"routed_ids"` // route-cache size

	// Sums over the shards' counters.
	Objects      int     `json:"objects"`
	ModelIOSec   float64 `json:"model_io_sec"`
	Batches      int64   `json:"batches"`
	BatchedJobs  int64   `json:"batched_queries"`
	Rejected     int64   `json:"rejected_total"`
	BufferHits   int64   `json:"buffer_hits"`
	BufferMisses int64   `json:"buffer_misses"`

	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`

	// Scatter shape: KNNQueries/KNNWaves count wave-ordered k-NN rounds;
	// Fanout[w] counts scatter operations that touched exactly w shards.
	KNNQueries int64   `json:"knn_queries"`
	KNNWaves   int64   `json:"knn_waves"`
	Fanout     []int64 `json:"fanout"`

	SlowLogMS float64 `json:"slowlog_ms"`
	SlowLog   int64   `json:"slowlog_total"`

	Router    map[string]server.EndpointMetrics `json:"router_endpoints"`
	ShardTier []ShardClientMetrics              `json:"shard_clients"`
	PerShard  []server.Metrics                  `json:"per_shard"`
}

// ShardsResponse is the body of GET /shards: where everything lives.
type ShardsResponse struct {
	Shards []ShardInfo `json:"shards"`
	PadX   float64     `json:"pad_x"`
	PadY   float64     `json:"pad_y"`
}

// ShardInfo describes one shard of the partition.
type ShardInfo struct {
	Addr string `json:"addr"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

package router

import (
	"fmt"
	"net/http"

	"spatialcluster/internal/obs"
)

// Prometheus exposition of the router's /metrics. Only the router's own
// families appear here — a scrape must stay cheap and local, so the
// per-shard /metrics bodies (which the JSON view aggregates) are left to the
// shards' own scrape targets. The sdbrouter_* namespace keeps router series
// from colliding with the sdb_* series of the shards on a shared dashboard.

func (rt *Router) writeProm(w http.ResponseWriter) {
	rt.front.WriteProm(w) // uptime, the per-endpoint families, admission, slow-query log

	obs.PromHead(w, "sdbrouter_info", "Served partition.", "gauge")
	obs.PromSample(w, "sdbrouter_info", [][2]string{{"partition", rt.pmap.String()}}, 1)
	obs.PromHead(w, "sdbrouter_shards", "Shards in the partition.", "gauge")
	obs.PromSample(w, "sdbrouter_shards", nil, float64(rt.pmap.N()))

	obs.PromHead(w, "sdbrouter_routed_ids", "Object IDs in the route cache.", "gauge")
	obs.PromSample(w, "sdbrouter_routed_ids", nil, float64(rt.routeSize()))

	// Per-shard families, labelled by shard address.
	obs.PromHead(w, "sdbrouter_shard_requests_total", "Typed-client exchanges by shard.", "counter")
	for i := range rt.shardObs {
		obs.PromSample(w, "sdbrouter_shard_requests_total",
			[][2]string{{"shard", rt.addrs[i]}}, float64(rt.shardObs[i].calls.Load()))
	}
	obs.PromHead(w, "sdbrouter_shard_errors_total",
		"Failed shard exchanges (after client retries) by shard.", "counter")
	for i := range rt.shardObs {
		obs.PromSample(w, "sdbrouter_shard_errors_total",
			[][2]string{{"shard", rt.addrs[i]}}, float64(rt.shardObs[i].errors.Load()))
	}
	obs.PromHead(w, "sdbrouter_shard_duration_seconds", "Shard exchange latency by shard.", "histogram")
	for i := range rt.shardObs {
		obs.PromHistogram(w, "sdbrouter_shard_duration_seconds",
			[][2]string{{"shard", rt.addrs[i]}}, rt.shardObs[i].hist.Snapshot())
	}
	obs.PromHead(w, "sdbrouter_shard_attempts_total",
		"Request attempts by the shard clients (first tries included).", "counter")
	for i, c := range rt.shards {
		obs.PromSample(w, "sdbrouter_shard_attempts_total",
			[][2]string{{"shard", rt.addrs[i]}}, float64(c.Counters.Stats().Attempts))
	}
	obs.PromHead(w, "sdbrouter_shard_retries_total",
		"Retried shard requests by shard and cause.", "counter")
	for i, c := range rt.shards {
		st := c.Counters.Stats()
		obs.PromSample(w, "sdbrouter_shard_retries_total",
			[][2]string{{"shard", rt.addrs[i]}, {"cause", "overload"}}, float64(st.RetriedOverload))
		obs.PromSample(w, "sdbrouter_shard_retries_total",
			[][2]string{{"shard", rt.addrs[i]}, {"cause", "conn"}}, float64(st.RetriedConn))
	}

	rt.writePromFanout(w)

	obs.PromHead(w, "sdbrouter_knn_queries_total", "Wave-ordered k-NN scatters run.", "counter")
	obs.PromSample(w, "sdbrouter_knn_queries_total", nil, float64(rt.knnQueries.Load()))
	obs.PromHead(w, "sdbrouter_knn_waves_total", "k-NN scatter waves run.", "counter")
	obs.PromSample(w, "sdbrouter_knn_waves_total", nil, float64(rt.knnWaves.Load()))
}

// writePromFanout renders the scatter-width counters as a histogram whose
// buckets are exact widths: le="w" counts scatters touching at most w shards.
func (rt *Router) writePromFanout(w http.ResponseWriter) {
	obs.PromHead(w, "sdbrouter_fanout_shards", "Shards touched per scatter operation.", "histogram")
	counts := rt.fanoutCounts()
	var cum, sum int64
	for width, n := range counts {
		cum += n
		sum += int64(width) * n
		fmt.Fprintf(w, "sdbrouter_fanout_shards_bucket{le=\"%d\"} %d\n", width, cum)
	}
	fmt.Fprintf(w, "sdbrouter_fanout_shards_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "sdbrouter_fanout_shards_sum %d\n", sum)
	fmt.Fprintf(w, "sdbrouter_fanout_shards_count %d\n", cum)
}

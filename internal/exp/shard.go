package exp

import (
	"fmt"
	"runtime"
	"strings"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/shard"
)

// The shard benchmark answers the question the router tier exists for: does
// Hilbert-range partitioning scale a cluster out — more shards, more served
// throughput — without changing a single answer? On the served fixture
// (served.go), every shard count serves the same deterministic stream
// through the scatter-gather router; every response — plain and traced —
// and every mutation verdict of a churn phase routed through the router is
// compared against one never-sharded reference store. The wall-clock sweep
// reports queries/sec per shard and scale-out efficiency relative to one
// shard, with tracing on and off.

// shardModel is the deterministic row of one shard count: how the partition
// splits the data and how the stream routes across it.
type shardModel struct {
	Shards  int `json:"shards"`
	Objects int `json:"objects"`
	// Balance of the partition over the dataset keys.
	MinShardObjects int     `json:"min_shard_objects"`
	MaxShardObjects int     `json:"max_shard_objects"`
	SkewX           float64 `json:"skew_x"` // largest shard over ideal share
	// MeanFanout is the mean number of shards a window or point query of the
	// stream routes to (1.0 means perfect locality).
	MeanFanout float64 `json:"mean_fanout"`
}

// shardRun is one measured arm: shard count × mode, closed loop through the
// router on the churned cluster.
type shardRun struct {
	Shards int `json:"shards"`
	// Mode is "json" (the public edge's codec; the router → shard hop is
	// binary) or "traced" (every request asking for the cluster-wide span
	// tree).
	Mode    string `json:"mode"`
	Clients int    `json:"clients"`
	servedRun
	WallQPSPerShard float64 `json:"wall_qps_per_shard"`
	// WallEfficiencyX is qps(n) / (n * qps(1)) within the mode: 1.0 is
	// perfect scale-out.
	WallEfficiencyX float64 `json:"wall_efficiency_x"`
}

// shardResult is the outcome of the sharding benchmark, emitted as
// BENCH_shard.json.
type shardResult struct {
	Scale      int     `json:"scale"`
	Requests   int     `json:"requests"`
	ChurnOps   int     `json:"churn_ops"`
	Seed       int64   `json:"seed"`
	Counts     []int   `json:"counts"`
	Clients    int     `json:"clients"`
	Throttle   float64 `json:"throttle"`
	WindowArea float64 `json:"window_area"`
	K          int     `json:"k"`
	GOMAXPROCS int     `json:"wall_gomaxprocs"` // env-dependent, stripped like a measurement

	// Reference answer counts of the stream against the single store,
	// fresh and after churn — the totals every shard count must reproduce.
	FreshAnswers    int `json:"fresh_answers"`
	FreshCandidates int `json:"fresh_candidates"`
	ChurnAnswers    int `json:"churn_answers"`
	ChurnCandidates int `json:"churn_candidates"`

	Model []shardModel `json:"model"`
	Runs  []shardRun   `json:"runs"`

	// Agree: at every shard count, every answer served through the router —
	// fresh, and churned in every mode — and every mutation verdict of the
	// churn phase was identical to the single reference store's. Held in go
	// test by router.TestRouterDifferential and TestRouterTracePropagation.
	Agree bool `json:"agree"`

	// WallTraceOverheadX is the worst untraced/traced throughput ratio over
	// all shard counts.
	WallTraceOverheadX float64 `json:"wall_tracing_overhead_x"`
}

// Failed implements result.
func (r shardResult) Failed() []string { return failed(verdict{"agree", r.Agree}) }

// shardModelRow computes the deterministic partition row for one shard count.
func shardModelRow(pmap *shard.Map, ds *datagen.Dataset, stream []datagen.Op) shardModel {
	counts := pmap.Counts(ds.MBRs)
	row := shardModel{Shards: pmap.N(), Objects: len(ds.Objects)}
	row.MinShardObjects = counts[0]
	for _, c := range counts {
		row.MinShardObjects = min(row.MinShardObjects, c)
		row.MaxShardObjects = max(row.MaxShardObjects, c)
	}
	if len(ds.Objects) > 0 {
		ideal := float64(len(ds.Objects)) / float64(pmap.N())
		row.SkewX = float64(row.MaxShardObjects) / ideal
	}
	fanouts, routed := 0, 0
	for _, rq := range stream {
		switch rq.Kind {
		case datagen.OpWindow:
			fanouts += len(pmap.Overlapping(rq.Window))
			routed++
		case datagen.OpPoint:
			fanouts += len(pmap.Overlapping(geom.RectFromPoint(rq.Point)))
			routed++
		}
	}
	if routed > 0 {
		row.MeanFanout = float64(fanouts) / float64(routed)
	}
	return row
}

// shardModes are the measured arms of every shard count, in row order.
var shardModes = []struct {
	name   string
	traced bool
}{{"json", false}, {"traced", true}}

// shardBench measures the sharded cluster: for every swept shard count the
// dataset is Hilbert-range partitioned, each shard is served over HTTP, and
// the scatter-gather router in front answers the same deterministic query
// stream — verified request-by-request against a single never-sharded store,
// fresh and again, in every mode, after a mutation workload routed through
// the router. The wall-clock arms then drive a closed loop through the
// router on throttled disks, per mode, and report throughput per shard and
// scale-out efficiency against the one-shard run.
//
// The shard counts are 1, 2, 4 and 8, the stream has 240 requests, the
// churn 400 ops, and 16 clients drive the wall-clock arms; the smoke preset
// runs 1, 2 and 4 shards, 80 requests, 200 churn ops and 8 clients.
func shardBench(o Options, smoke bool, sweep []int) result {
	o = o.WithDefaults()
	counts, requests, churnOps, clients := sweep, 240, 400, 16
	if smoke {
		o = o.smoke(0)
		requests, churnOps, clients = 80, 200, 8
		if len(counts) == 0 {
			counts = []int{1, 2, 4}
		}
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed,
	})
	stream := ds.Stream(datagen.StreamSpec{
		N: requests, WindowArea: streamWindowArea, K: streamK, Seed: o.Seed + 6,
	})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: churnOps, HotspotFrac: 0.5, Seed: o.Seed + 7})

	res := shardResult{
		Scale:      o.Scale,
		Requests:   requests,
		ChurnOps:   churnOps,
		Seed:       o.Seed,
		Counts:     counts,
		Clients:    clients,
		Throttle:   servedThrottle,
		WindowArea: streamWindowArea,
		K:          streamK,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Agree:      true,
	}

	// The reference: the whole dataset in one store, the stream answered
	// serially in-process, the churn applied directly.
	ref := build(orgCluster, ds, o.storeConfig()).Org
	freshRefs := applyAll(ref, stream)
	res.FreshAnswers, res.FreshCandidates = sumAnswers(freshRefs)
	opRefs := applyAll(ref, ops)
	churnRefs := applyAll(ref, stream)
	res.ChurnAnswers, res.ChurnCandidates = sumAnswers(churnRefs)
	o.Progress("shard: reference ready (%d objects, %d answers fresh, %d churned)",
		len(ds.Objects), res.FreshAnswers, res.ChurnAnswers)

	oneShardQPS := map[string]float64{}
	for _, n := range counts {
		m := shardModelRow(shard.FromKeys(ds.MBRs, n), ds, stream)
		res.Model = append(res.Model, m)

		sc, err := startShardCluster(o, ds, n, clients)
		if err != nil {
			// A malformed sweep (shard count the partition cannot express)
			// is a configuration error, not a measurement.
			panic(fmt.Sprintf("exp: shard cluster with %d shards: %v", n, err))
		}
		o.Progress("shard: n=%d built (%d..%d objects/shard, fanout %.2f)",
			n, m.MinShardObjects, m.MaxShardObjects, m.MeanFanout)

		if !replay(sc.client, stream, freshRefs) {
			res.Agree = false
			o.Progress("shard: n=%d fresh answers DIFFER from the reference", n)
		}
		if !replay(sc.client, ops, opRefs) {
			res.Agree = false
			o.Progress("shard: n=%d churn verdicts or answers DIFFER from the reference", n)
		}
		for _, mode := range shardModes {
			if !replay(view(sc.client, mode.traced), stream, churnRefs) {
				res.Agree = false
				o.Progress("shard: n=%d churned %s answers DIFFER from the reference", n, mode.name)
			}
		}

		// Wall-clock arms: throttled shard disks, closed loop through the
		// router, shard-side counters bracketed across all shards.
		setThrottle(servedThrottle, sc.orgs...)
		var untraced float64
		for _, mode := range shardModes {
			run := shardRun{Shards: n, Mode: mode.name, Clients: clients,
				servedRun: measure(view(sc.client, mode.traced), sc.shards, closed(stream, clients))}
			run.WallQPSPerShard = run.WallQPS / float64(n)
			if n == 1 {
				oneShardQPS[mode.name] = run.WallQPS
			}
			run.WallEfficiencyX = ratio(run.WallQPS, float64(n)*oneShardQPS[mode.name])
			if mode.traced {
				res.WallTraceOverheadX = max(res.WallTraceOverheadX, ratio(untraced, run.WallQPS))
			} else {
				untraced = run.WallQPS
			}
			res.Runs = append(res.Runs, run)
			o.Progress("shard: n=%d %s %.0f qps (%.0f/shard, efficiency %.2fx) p95=%.2f ms",
				n, mode.name, run.WallQPS, run.WallQPSPerShard, run.WallEfficiencyX, run.WallP95MS)
		}
		setThrottle(0, sc.orgs...)
		sc.stop()
	}
	return res
}

// Render formats the result as a text report.
func (r shardResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding benchmark (scale=%d, %d requests/run, %d churn ops, %d clients, throttle %gx, GOMAXPROCS=%d)\n",
		r.Scale, r.Requests, r.ChurnOps, r.Clients, r.Throttle, r.GOMAXPROCS)
	fmt.Fprintf(&b, "\nPartition (deterministic):\n")
	fmt.Fprintf(&b, "  %6s %9s %11s %11s %7s %8s\n",
		"shards", "objects", "min/shard", "max/shard", "skew", "fanout")
	for _, m := range r.Model {
		fmt.Fprintf(&b, "  %6d %9d %11d %11d %6.2fx %8.2f\n",
			m.Shards, m.Objects, m.MinShardObjects, m.MaxShardObjects, m.SkewX, m.MeanFanout)
	}
	fmt.Fprintf(&b, "\nScale-out (closed loop through the router):\n")
	fmt.Fprintf(&b, "  %6s %-14s %8s %9s %11s %11s %9s %9s %9s\n",
		"shards", "mode", "clients", "qps", "qps/shard", "efficiency", "p50 ms", "p95 ms", "p99 ms")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %6d %-14s %8d %9.0f %11.0f %10.2fx %9.2f %9.2f %9.2f\n",
			run.Shards, run.Mode, run.Clients, run.WallQPS, run.WallQPSPerShard,
			run.WallEfficiencyX, run.WallP50MS, run.WallP95MS, run.WallP99MS)
	}
	fmt.Fprintf(&b, "\nRouter answers identical to the single store (fresh + churned, every mode): %v\n", r.Agree)
	fmt.Fprintf(&b, "worst tracing overhead through the router: %.2fx\n", r.WallTraceOverheadX)
	return b.String()
}

package exp

import (
	"fmt"
	"strings"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/shard"
)

// The shard benchmark answers the question the router tier exists for: does
// Hilbert-range partitioning split a cluster without changing a single
// answer? On the served fixture (served.go), every shard count serves the
// same deterministic stream through the scatter-gather router; every
// response — plain and traced — and every mutation verdict of a churn phase
// routed through the router is compared against one never-sharded reference
// store, and the partition rows report how the data and the stream split.
// Scatter-gather wall clock is bench/'s cluster_scatter.

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

// shardResult is the outcome of the sharding benchmark, emitted as
// BENCH_shard.json.
type shardResult struct {
	Scale      int     `json:"scale"`
	Requests   int     `json:"requests"`
	ChurnOps   int     `json:"churn_ops"`
	Seed       int64   `json:"seed"`
	Counts     []int   `json:"counts"`
	WindowArea float64 `json:"window_area"`
	K          int     `json:"k"`

	// Reference answer counts of the stream against the single store,
	// fresh and after churn — the totals every shard count must reproduce.
	FreshAnswers    int `json:"fresh_answers"`
	FreshCandidates int `json:"fresh_candidates"`
	ChurnAnswers    int `json:"churn_answers"`
	ChurnCandidates int `json:"churn_candidates"`

	Model []shardModel `json:"model"`

	// Agree: at every shard count, every answer served through the router —
	// fresh, and churned plain and traced — and every mutation verdict of the
	// churn phase was identical to the single reference store's. Held in go
	// test by router.TestRouterDifferential and TestRouterTracePropagation.
	Agree bool `json:"agree"`
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

// shardBench checks the sharded cluster: for every swept shard count the
// dataset is Hilbert-range partitioned, each shard is served over HTTP, and
// the scatter-gather router in front answers the same deterministic query
// stream — verified request-by-request against a single never-sharded store,
// fresh and again, plain and traced, after a mutation workload routed
// through the router.
//
// The shard counts are 1, 2, 4 and 8, the stream has 240 requests and the
// churn 400 ops; the smoke preset runs 1, 2 and 4 shards, 80 requests and
// 200 churn ops.
func shardBench(o Options, smoke bool, sweep []int) result {
	o = o.WithDefaults()
	counts, requests, churnOps := sweep, 240, 400
	if smoke {
		o = o.smoke(0)
		requests, churnOps = 80, 200
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
		WindowArea: streamWindowArea,
		K:          streamK,
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

	for _, n := range counts {
		m := shardModelRow(shard.FromKeys(ds.MBRs, n), ds, stream)
		res.Model = append(res.Model, m)

		client, stop, err := startShardCluster(o, ds, n)
		if err != nil {
			// A malformed sweep (shard count the partition cannot express)
			// is a configuration error, not a measurement.
			panic(fmt.Sprintf("exp: shard cluster with %d shards: %v", n, err))
		}
		o.Progress("shard: n=%d built (%d..%d objects/shard, fanout %.2f)",
			n, m.MinShardObjects, m.MaxShardObjects, m.MeanFanout)

		if !replay(client, stream, freshRefs) {
			res.Agree = false
			o.Progress("shard: n=%d fresh answers DIFFER from the reference", n)
		}
		if !replay(client, ops, opRefs) {
			res.Agree = false
			o.Progress("shard: n=%d churn verdicts or answers DIFFER from the reference", n)
		}
		for _, traced := range []bool{false, true} {
			if !replay(view(client, traced), stream, churnRefs) {
				res.Agree = false
				o.Progress("shard: n=%d churned answers (traced=%v) DIFFER from the reference", n, traced)
			}
		}
		stop()
	}
	return res
}

// Render formats the result as a text report.
func (r shardResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding benchmark (scale=%d, %d requests/run, %d churn ops)\n",
		r.Scale, r.Requests, r.ChurnOps)
	fmt.Fprintf(&b, "\nPartition (deterministic):\n")
	fmt.Fprintf(&b, "  %6s %9s %11s %11s %7s %8s\n",
		"shards", "objects", "min/shard", "max/shard", "skew", "fanout")
	for _, m := range r.Model {
		fmt.Fprintf(&b, "  %6d %9d %11d %11d %6.2fx %8.2f\n",
			m.Shards, m.Objects, m.MinShardObjects, m.MaxShardObjects, m.SkewX, m.MeanFanout)
	}
	fmt.Fprintf(&b, "\nRouter answers identical to the single store (fresh + churned, plain and traced): %v\n", r.Agree)
	return b.String()
}

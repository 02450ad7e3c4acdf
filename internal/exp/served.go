package exp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/object"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// The served fixture: what every experiment that puts a store behind HTTP
// (server, shard) shares. A deterministic request stream is answered once
// serially in-process — the reference pass — and every served arm, whatever
// its tracing, execution mode or shard count, is replayed against those
// answers before its throughput is measured. Every arm speaks JSON: that
// binary answers equal JSON answers is held by server.TestBinaryDifferential
// and router.TestRouterBinaryDifferential, and what the codec costs by the
// binproto.* metrics of bench/ — a closed-loop qps ratio weighed noise. To make the
// measured comparison mean anything on any machine — including single-core
// CI — the modelled disk is throttled (disk.SetThrottle): every request
// sleeps its modelled time scaled by a small factor, so the server is
// I/O-bound exactly the way the paper's 1994 hardware was, and overlapping
// I/O waits is a real wall-clock win rather than a scheduling artifact.
//
// Determinism contract (the registry test and CI byte-compare two runs with
// the "wall lines stripped): reference rows and the per-arm answer and error
// counts are functions of the stream and the store, never of timing;
// everything measured carries a wall_ prefix.

// The shape of every served stream: the middle window size of Figure 8 and
// 10-NN, mixed 50/25/25 with point queries by loadgen's default.
const (
	streamWindowArea = 0.001
	streamK          = 10
)

// refAnswer is the serial in-process answer of one stream request.
type refAnswer struct {
	ids   []object.ID // windows/points: set order; k-NN: rank order
	knn   bool
	cands int
}

// serialAnswers executes the stream serially in-process against org and
// returns the per-request reference answers. Server semantics: no page
// cooling, the buffer stays warm across requests.
func serialAnswers(org store.Organization, stream []loadgen.Request) []refAnswer {
	refs := make([]refAnswer, len(stream))
	for i, rq := range stream {
		switch rq.Kind {
		case loadgen.KindWindow:
			r := org.WindowQuery(rq.Window, rq.Tech)
			refs[i] = refAnswer{ids: r.IDs, cands: r.Candidates}
		case loadgen.KindPoint:
			r := org.PointQuery(rq.Point)
			refs[i] = refAnswer{ids: r.IDs, cands: r.Candidates}
		case loadgen.KindKNN:
			r := org.NearestQuery(rq.Point, rq.K)
			refs[i] = refAnswer{ids: r.IDs, knn: true, cands: r.Candidates}
		}
	}
	return refs
}

// sumAnswers totals a reference pass.
func sumAnswers(refs []refAnswer) (answers, candidates int) {
	for _, r := range refs {
		answers += len(r.ids)
		candidates += r.cands
	}
	return
}

// answersMatch compares a served answer with its reference: rank by rank
// for k-NN (ordered), as sets otherwise.
func answersMatch(got []uint64, want refAnswer) bool {
	if len(got) != len(want.ids) {
		return false
	}
	if want.knn {
		for i := range got {
			if got[i] != uint64(want.ids[i]) {
				return false
			}
		}
		return true
	}
	seen := make(map[uint64]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want.ids {
		seen[uint64(id)]--
		if seen[uint64(id)] < 0 {
			return false
		}
	}
	return true
}

// ask sends one stream request — traced: asking for its span tree — and
// returns the answer IDs.
func ask(c *server.Client, rq loadgen.Request, traced bool) ([]uint64, error) {
	switch rq.Kind {
	case loadgen.KindWindow:
		call := c.Window
		if traced {
			call = c.WindowTraced
		}
		r, err := call(rq.Window, "")
		return r.IDs, err
	case loadgen.KindPoint:
		call := c.Point
		if traced {
			call = c.PointTraced
		}
		r, err := call(rq.Point)
		return r.IDs, err
	default:
		call := c.KNN
		if traced {
			call = c.KNNTraced
		}
		r, err := call(rq.Point, rq.K)
		return r.IDs, err
	}
}

// replay sends the stream serially, traced or not, and reports whether every
// answer matched its reference.
func replay(c *server.Client, stream []loadgen.Request, traced bool, refs []refAnswer) bool {
	for i, rq := range stream {
		ids, err := ask(c, rq, traced)
		if err != nil || !answersMatch(ids, refs[i]) {
			return false
		}
	}
	return true
}

// ServedRun is the outcome of one measured arm. Requests, Answers and Errors
// are functions of the stream and the store (byte-reproducible); every wall_
// field is a real measurement. The server-side fields are /metrics deltas
// over the arm, summed over every store behind the client.
type ServedRun struct {
	Requests int `json:"requests"`
	Answers  int `json:"answers"`
	Errors   int `json:"errors"`

	WallQPS    float64 `json:"wall_qps"`
	WallP50MS  float64 `json:"wall_p50_ms"`
	WallP95MS  float64 `json:"wall_p95_ms"`
	WallP99MS  float64 `json:"wall_p99_ms"`
	WallMeanMS float64 `json:"wall_mean_ms"`

	WallBatches   int64   `json:"wall_batches"`
	WallMeanBatch float64 `json:"wall_mean_batch"`
	WallHitRatio  float64 `json:"wall_hit_ratio"`
	// WallModelIOSec is modelled cost, but attributed by scrape deltas of a
	// concurrency-shaped arm, so it is stripped like a measurement.
	WallModelIOSec float64 `json:"wall_model_io_sec"`
}

// measure runs one measured arm: drive puts the stream through c, traced or
// not (closed or open loop), bracketed by a /metrics scrape of the stores
// behind it — the server itself, or every shard of a cluster.
func measure(c *server.Client, stores []*server.Client, traced bool,
	drive func(loadgen.Do) loadgen.Result) ServedRun {

	scrapers := make([]loadgen.Scraper, len(stores))
	for i, sc := range stores {
		scrapers[i] = func() (loadgen.ServerStats, error) {
			m, err := sc.Metrics()
			return loadgen.ServerStats{
				Batches:      m.Batches,
				BatchedJobs:  m.BatchedJobs,
				Rejected:     m.Rejected,
				BufferHits:   m.BufferHits,
				BufferMisses: m.BufferMisses,
				ModelIOSec:   m.ModelIOSec,
			}, err
		}
	}
	lr := loadgen.WithServerStats(loadgen.MultiScraper(scrapers...), func() loadgen.Result {
		return drive(func(rq loadgen.Request) (int, error) {
			ids, err := ask(c, rq, traced)
			return len(ids), err
		})
	})
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	run := ServedRun{
		Requests:   lr.Requests,
		Answers:    lr.Answers,
		Errors:     lr.Errors,
		WallQPS:    lr.QPS,
		WallP50MS:  ms(lr.Lat.P50()),
		WallP95MS:  ms(lr.Lat.P95()),
		WallP99MS:  ms(lr.Lat.P99()),
		WallMeanMS: ms(lr.Lat.Mean()),
	}
	if lr.Server != nil {
		run.WallBatches = lr.Server.Batches
		run.WallMeanBatch = lr.Server.MeanBatch
		run.WallHitRatio = lr.Server.HitRatio
		run.WallModelIOSec = lr.Server.ModelIOSec
	}
	return run
}

// closedLoop is measure's usual driver: clients back-to-back clients.
func closedLoop(stream []loadgen.Request, clients int) func(loadgen.Do) loadgen.Result {
	return func(do loadgen.Do) loadgen.Result { return loadgen.ClosedLoop(do, stream, clients) }
}

// ratio is a/b for the throughput ratios of the reports, 0 when b measured
// nothing (JSON has no Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startServer mounts a fresh server over org on a loopback listener.
func startServer(org store.Organization, scfg server.Config) (*server.Client, func()) {
	s := server.New(org, scfg)
	hs := httptest.NewServer(s.Handler())
	stop := func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	return server.NewClient(hs.URL, 64), stop
}

// shardCluster is one running shard count: per-shard stores served over
// loopback HTTP behind a router.
type shardCluster struct {
	orgs   []store.Organization
	shards []*server.Client
	client *server.Client // speaks to the router
	stop   func()
}

// startShardCluster partitions ds into n shards, builds one cluster
// organization per shard, serves each over loopback HTTP and mounts a router
// in front, all sized for a closed loop of clients. The shard clients carry
// a deterministic retry config so transient loopback hiccups cannot fail a
// benchmark run.
func startShardCluster(o Options, ds *datagen.Dataset, n, clients int) (*shardCluster, error) {
	pmap := shard.FromKeys(ds.MBRs, n)
	sc := &shardCluster{}
	var stops []func()
	sc.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for s := 0; s < n; s++ {
		sub := ds.Subset(func(key geom.Rect) bool { return pmap.ShardOfKey(key) == s })
		org := Build(OrgCluster, sub, o.BuildBufPages).Org
		c, stop := startServer(org, server.Config{MaxInFlight: clients + 1})
		stops = append(stops, stop)
		c.Retry = &server.Retry{Attempts: 4, BaseDelay: time.Millisecond,
			MaxDelay: 16 * time.Millisecond, Seed: o.Seed + int64(s)}
		sc.orgs = append(sc.orgs, org)
		sc.shards = append(sc.shards, c)
	}
	rt, err := router.New(pmap, sc.shards, router.Config{MaxInFlight: clients + 1})
	if err != nil {
		sc.stop()
		return nil, err
	}
	hs := httptest.NewServer(rt.Handler())
	stops = append(stops, hs.Close)
	sc.client = server.NewClient(hs.URL, 64)
	return sc, nil
}

// setThrottle switches the wall-clock factor of every store's modelled disk
// (0 turns it off).
func setThrottle(factor float64, orgs ...store.Organization) {
	for _, org := range orgs {
		org.Env().Disk.SetThrottle(factor)
	}
}

// applyOver sends a mixed workload through c op by op. visit sees each op's
// outcome the way the in-process reference reports it: existed is true for
// an insert and the server's verdict for a delete or update; answers is the
// result size of an embedded window query.
func applyOver(c *server.Client, ops []datagen.Op, visit func(i int, existed bool, answers int)) error {
	for i, op := range ops {
		var (
			existed bool
			answers int
			err     error
		)
		switch op.Kind {
		case datagen.OpInsert:
			existed, err = true, c.Insert(op.Obj, op.Key)
		case datagen.OpDelete:
			existed, err = c.Delete(op.ID)
		case datagen.OpUpdate:
			existed, err = c.Update(op.Obj, op.Key)
		case datagen.OpQuery:
			var r server.QueryResponse
			r, err = c.Window(op.Window, "")
			answers = len(r.IDs)
		}
		if err != nil {
			return fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
		}
		visit(i, existed, answers)
	}
	return nil
}

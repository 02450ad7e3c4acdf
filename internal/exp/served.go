package exp

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// The served fixture: what every experiment that puts a store behind HTTP
// (server, shard) shares. A deterministic stream of generated ops is run once
// serially in-process — the reference pass — and every served arm, whatever
// its tracing, execution mode or shard count, is replayed against those
// outcomes before its throughput is measured, closed or open loop. Every arm
// speaks JSON at the public edge (the router → shard hop is binary): that
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
// 10-NN, mixed 50/25/25 with point queries by datagen.Stream.
const (
	streamWindowArea = 0.001
	streamK          = 10
)

// applyAll executes ops serially in-process against org, windows at the
// default technique, and returns the per-op outcomes — the reference every
// served arm is compared with. Server semantics: no page cooling, the buffer
// stays warm across requests. Against a *wal.Store every mutation is one
// commit: its mutating methods log one record each and panic when the log
// fails.
func applyAll(org store.Organization, ops []datagen.Op) []applied {
	refs := make([]applied, len(ops))
	for i, op := range ops {
		refs[i] = apply(org, op, store.TechComplete)
	}
	return refs
}

// sumAnswers totals a reference pass.
func sumAnswers(refs []applied) (answers, candidates int) {
	for _, r := range refs {
		answers += len(r.IDs)
		candidates += r.Candidates
	}
	return
}

// answersMatch compares a served answer with its reference: rank by rank
// when ordered (k-NN), as sets otherwise.
func answersMatch(got []uint64, want []object.ID, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if ordered {
		for i := range got {
			if got[i] != uint64(want[i]) {
				return false
			}
		}
		return true
	}
	seen := make(map[uint64]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		seen[uint64(id)]--
		if seen[uint64(id)] < 0 {
			return false
		}
	}
	return true
}

// send puts one generated op through c — the one place the harness turns an
// op into a request — and returns the answer IDs of a query, the verdict of
// a mutation (true for an insert the server took). A window names no
// technique. Through a traced view of the client every query asks for its
// span tree.
func send(c *server.Client, op datagen.Op) (ids []uint64, existed bool, err error) {
	switch op.Kind {
	case datagen.OpInsert:
		err = c.Insert(op.Obj, op.Key)
		return nil, err == nil, err
	case datagen.OpDelete:
		existed, err = c.Delete(op.ID)
		return nil, existed, err
	case datagen.OpUpdate:
		existed, err = c.Update(op.Obj, op.Key)
		return nil, existed, err
	case datagen.OpWindow:
		r, err := c.Window(op.Window, "")
		return r.IDs, false, err
	case datagen.OpPoint:
		r, err := c.Point(op.Point)
		return r.IDs, false, err
	case datagen.OpKNN:
		r, err := c.KNN(op.Point, op.K)
		return r.IDs, false, err
	}
	panic(fmt.Sprintf("exp: unknown op kind %v", op.Kind))
}

// view returns the client an arm is driven through: c itself, or — traced —
// the view of c every query of which asks for its span tree.
func view(c *server.Client, traced bool) *server.Client {
	if traced {
		return c.WithTrace(context.Background(), 0)
	}
	return c
}

// replay sends ops serially through c and reports whether every one was
// served and matched its reference: a query's answer, a mutation's verdict.
func replay(c *server.Client, ops []datagen.Op, refs []applied) bool {
	for i, op := range ops {
		ids, existed, err := send(c, op)
		if err != nil || existed != refs[i].existed ||
			!answersMatch(ids, refs[i].IDs, op.Kind == datagen.OpKNN) {
			return false
		}
	}
	return true
}

// servedRun is the outcome of one measured arm. Requests, Answers and Errors
// are functions of the stream and the store (byte-reproducible); every wall_
// field is a real measurement, the latency quantiles at the ≤ 9 % bucket
// resolution of obs.Histogram — the histogram /metrics reports. The
// server-side fields are /metrics deltas over the arm, summed over every
// store behind the client.
type servedRun struct {
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

// doFunc executes one op against the system under test and returns the
// number of answers. It must be safe for concurrent use.
type doFunc func(datagen.Op) (answers int, err error)

// load is what a loop driver measured: the tally of its requests and the
// wall-clock time of the whole run.
type load struct {
	answers, errors atomic.Int64
	lat             obs.Histogram
	wall            time.Duration
}

// one executes and times one request; safe for concurrent use.
func (l *load) one(do doFunc, op datagen.Op) {
	t0 := time.Now()
	answers, err := do(op)
	l.lat.Observe(time.Since(t0))
	if err != nil {
		l.errors.Add(1)
		return
	}
	l.answers.Add(int64(answers))
}

// closedLoop drives ops with a fixed population of clients: client i
// executes requests i, i+clients, i+2·clients, … back to back, so the offered
// load adapts to the server's speed (the classic closed-loop model). The
// request-to-client assignment is deterministic; only timing varies.
func closedLoop(do doFunc, ops []datagen.Op, clients int) *load {
	clients = max(1, min(clients, len(ops)))
	l := &load{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				l.one(do, ops[i])
			}
		}(c)
	}
	wg.Wait()
	l.wall = time.Since(start)
	return l
}

// openLoop drives ops with seeded Poisson arrivals at the given mean rate
// (requests per second): request i fires at its arrival time in its own
// goroutine whether or not earlier requests have answered, so a server
// slower than the offered rate accumulates queueing delay — visible in the
// latency quantiles, which a closed loop structurally cannot show. The
// arrival schedule is deterministic in (len(ops), rate, seed).
func openLoop(do doFunc, ops []datagen.Op, rate float64, seed int64) *load {
	arrivals := openSchedule(len(ops), rate, seed)
	l := &load{}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d := arrivals[i] - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			l.one(do, ops[i])
		}(i)
	}
	wg.Wait()
	l.wall = time.Since(start)
	return l
}

// openSchedule pre-draws the arrival offsets of an open loop, so that the
// goroutine launches do not perturb the randomness.
func openSchedule(n int, rate float64, seed int64) []time.Duration {
	if rate <= 0 {
		panic(fmt.Sprintf("exp: open loop needs a positive rate, got %g", rate))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e)) // "open"
	arrivals := make([]time.Duration, n)
	var at float64 // seconds
	for i := range arrivals {
		at += rng.ExpFloat64() / rate
		arrivals[i] = time.Duration(at * float64(time.Second))
	}
	return arrivals
}

// scrape sums the counters a measured arm is attributed to over the /metrics
// of every store. A failure of any store fails the scrape: a partial sum
// would make the delta lie.
func scrape(stores []*server.Client) (sum server.Metrics, err error) {
	for i, sc := range stores {
		m, err := sc.Metrics()
		if err != nil {
			return sum, fmt.Errorf("scraping store %d of %d: %w", i, len(stores), err)
		}
		sum.Batches += m.Batches
		sum.BatchedJobs += m.BatchedJobs
		sum.BufferHits += m.BufferHits
		sum.BufferMisses += m.BufferMisses
		sum.ModelIOSec += m.ModelIOSec
	}
	return sum, nil
}

// closed is measure's usual driver: a closed loop of clients over ops.
func closed(ops []datagen.Op, clients int) func(doFunc) *load {
	return func(do doFunc) *load { return closedLoop(do, ops, clients) }
}

// measure runs one measured arm: drive (a closed or open loop) puts its ops
// through c — a traced view to trace every query — bracketed by a /metrics
// scrape of the stores behind it: the server itself, or every shard of a
// cluster. A failed scrape leaves the server-side fields zero rather than
// failing the run — observation must not break the measurement.
func measure(c *server.Client, stores []*server.Client, drive func(doFunc) *load) servedRun {
	before, errBefore := scrape(stores)
	l := drive(func(op datagen.Op) (int, error) {
		ids, _, err := send(c, op)
		return len(ids), err
	})
	after, errAfter := scrape(stores)

	lat := l.lat.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	run := servedRun{
		Requests:  int(lat.Count),
		Answers:   int(l.answers.Load()),
		Errors:    int(l.errors.Load()),
		WallQPS:   ratio(float64(lat.Count), l.wall.Seconds()),
		WallP50MS: ms(lat.Quantile(0.50)),
		WallP95MS: ms(lat.Quantile(0.95)),
		WallP99MS: ms(lat.Quantile(0.99)),
	}
	if lat.Count > 0 {
		run.WallMeanMS = ms(time.Duration(lat.SumNS / lat.Count))
	}
	if errBefore == nil && errAfter == nil {
		run.WallBatches = after.Batches - before.Batches
		run.WallMeanBatch = ratio(float64(after.BatchedJobs-before.BatchedJobs), float64(run.WallBatches))
		hits, misses := after.BufferHits-before.BufferHits, after.BufferMisses-before.BufferMisses
		run.WallHitRatio = ratio(float64(hits), float64(hits+misses))
		run.WallModelIOSec = after.ModelIOSec - before.ModelIOSec
	}
	return run
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
// in front, all sized for a closed loop of clients. The shard clients speak
// the binary protocol, as sdbrouter's do, and carry a deterministic retry
// config so transient loopback hiccups cannot fail a benchmark run.
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
		org := build(orgCluster, sub, o.storeConfig()).Org
		c, stop := startServer(org, server.Config{MaxInFlight: clients + 1})
		stops = append(stops, stop)
		c.Binary = true
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

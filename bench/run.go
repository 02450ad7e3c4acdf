package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// processStart is taken as early as the program can: setup_s counts from it.
var processStart = time.Now()

// sizes are the knobs -smoke shrinks; a full run always uses fullSizes.
type sizes struct {
	scale      int // datagen scale: 8 is 16,432 objects
	bufDiv     int // divides every buffer, so that a smaller store keeps its buffer share
	engineOps  int // engine_read operations per round
	servedOps  int // served_read and cluster_scatter operations per round
	writeOps   int // served_write mutations per round, and as many reads
	ladderOps  int // reads replayed at each rung of the traced ladder
	ladderMuts int // mutations per rung of the served_write ladder
	finalCheck int // windows compared after the served_write churn
}

var (
	fullSizes  = sizes{scale: 8, bufDiv: 1, engineOps: 20000, servedOps: 3000, writeOps: 800, ladderOps: 1000, ladderMuts: 400, finalCheck: 200}
	smokeSizes = sizes{scale: 64, bufDiv: 8, engineOps: 1500, servedOps: 300, writeOps: 80, ladderOps: 100, ladderMuts: 40, finalCheck: 50}
)

// clients is the number of closed-loop load generators of every served
// workload: each sends its next request only when the previous one is
// answered, the way the router and applications call sdbd.
const clients = 2

// workloadDef is one workload: which layers it puts in front of the store
// and what traffic it sends.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	bufPages int  // buffer pages of each store
	shards   int  // 0: one store; otherwise stores behind a router
	served   bool // false: the load generator calls the store in-process
	durable  bool // a write-ahead log with an fsync per commit, and mutations
	query    querySpec
	ops      func(sizes) int // operations per round over all clients
}

var workloads = []workloadDef{
	{
		Name:     wEngineRead,
		Why:      "in-process queries on a store 22x its buffer: geom, rtree, buffer, disk and store do all the work, no server code runs",
		bufPages: 256,
		query:    querySpec{windowArea: 0.001, k: 10},
		ops:      func(s sizes) int { return s.engineOps },
	},
	{
		Name:     wServedRead,
		Why:      "one sdbd over loopback JSON, 2 closed-loop clients, 90% of queries in a hotspot that fits the buffer: admission, dispatcher, codec and HTTP dominate",
		bufPages: 1024, served: true,
		query: querySpec{windowArea: 0.001, k: 10, hotTenths: 9},
		ops:   func(s sizes) int { return s.servedOps },
	},
	{
		Name:     wServedWrite,
		Why:      "the same server over a WAL that fsyncs every commit: one client mutates (30/40/30 insert/update/delete) beside one that queries, so the write path and fragmentation show",
		bufPages: 1024, served: true, durable: true,
		query: querySpec{windowArea: 0.001, windowOnly: true},
		ops:   func(s sizes) int { return 2 * s.writeOps },
	},
	{
		Name:     wClusterScatter,
		Why:      "3 shards behind the router, binary router-to-shard hop, windows of 1% of the space that cross shard boundaries: scatter, merge and the slowest shard dominate",
		bufPages: 256, shards: 3, served: true,
		query: querySpec{windowArea: 0.01, k: 10},
		ops:   func(s sizes) int { return s.servedOps },
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	rounds   int
	trace    bool
	outDir   string
	sz       sizes
}

// report is everything one run measured. The last line of standard output
// carries the part the driver asked for; the whole report goes to
// <out>/<workload>.json.
type report struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Loop        string `json:"loop"`
	Clients     int    `json:"clients"`
	Rounds      int    `json:"rounds"`
	OpsPerRound int    `json:"ops_per_round"`
	// LatencySamples is the per-round sample count behind lat_p50_ms and
	// lat_p95_ms (on served_write: the mutations only).
	LatencySamples int    `json:"latency_samples_per_round"`
	Objects        int    `json:"objects"`
	HotObjects     int    `json:"hotspot_objects"` // centred inside the hotspot square
	StorePages     int    `json:"store_pages"`     // occupied pages after the build, all stores
	BufferPages    int    `json:"buffer_pages_per_store"`
	Stores         int    `json:"stores"`
	FlushPolicy    string `json:"flush_policy"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	RoundOpsPerS []float64          `json:"round_ops_per_s"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Ladder       []rungReport       `json:"ladder,omitempty"`
	// SpanSelfMS sums, per span name, the self times of the traced pass's
	// spans: duration minus what child spans cover.
	SpanSelfMS map[string]float64 `json:"span_self_ms,omitempty"`
	WallS      float64            `json:"wall_s"`
}

// bench is the state of one run.
type bench struct {
	cfg     runConfig
	w       *workloadDef
	ds      *datagen.Dataset
	hotspot geom.Rect
	sys     *system
	tmp     string // WAL and snapshot files; removed by cleanup

	load     []target           // one per load-generator goroutine
	admin    *server.Client     // reads /metrics and /stats of the edge
	stream   []op               // the read stream in generation order
	digests  []uint64           // the oracle's answers to stream; nil on served_write
	copyOrg  store.Organization // served_write: the reopened snapshot copy
	reads    [][]op             // the read stream, dealt to the clients
	want     [][]uint64         // reference digests of reads; nil when unverifiable
	readAt   int                // next unread position in each client's share
	muts     *mutGen            // served_write
	perRound int

	buildS float64
	rep    *report
	pooled [numOpKinds][]float64 // timed latencies by kind, ms
}

// bufPages is the buffer size of each store of the run.
func (b *bench) bufPages() int { return b.w.bufPages / b.cfg.sz.bufDiv }

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %6.1fs  "+format+"\n",
		append([]any{time.Since(processStart).Seconds()}, args...)...)
}

// cleanup stops everything the run started and removes its files. It is safe
// to call more than once.
func (b *bench) cleanup() error {
	var first error
	if b.copyOrg != nil {
		first = b.copyOrg.Env().Close()
		b.copyOrg = nil
	}
	if b.sys != nil {
		if err := b.sys.close(); first == nil {
			first = err
		}
		if b.sys.wal != nil {
			if err := b.sys.wal.Close(); first == nil {
				first = err
			}
			b.sys.wal = nil
		}
	}
	if b.tmp != "" {
		if err := os.RemoveAll(b.tmp); first == nil {
			first = err
		}
		b.tmp = ""
	}
	return first
}

// setup builds the system under test, generates the operation stream with
// its reference answers, and runs the verified warm-up round.
func (b *bench) setup() error {
	w, sz := b.w, b.cfg.sz
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(b.cfg.outDir, "tmp-"+w.Name+"-")
	if err != nil {
		return err
	}
	b.tmp = tmp

	b.ds = generateDataset(sz.scale)
	b.hotspot = hotspotOf(b.ds)
	b.perRound = w.ops(sz)

	var pmap *shard.Map
	if w.shards > 0 {
		pmap = shard.FromKeys(b.ds.MBRs, w.shards)
	}
	t0 := time.Now()
	orgs := buildStores(b.ds, pmap, b.bufPages())
	b.buildS = time.Since(t0).Seconds()
	switch {
	case pmap != nil:
		if b.sys, err = serveCluster(orgs, pmap, clients); err != nil {
			return err
		}
	case !w.served:
		b.sys = &system{nodes: []*node{{org: orgs[0]}}}
	default:
		b.sys = &system{}
		org := orgs[0]
		if w.durable {
			ws, err := wal.Create(org, filepath.Join(b.tmp, "wal"), wal.Options{SyncEvery: 1})
			if err != nil {
				return err
			}
			b.sys.wal, org = ws, ws
		}
		nd, err := serveStore(org)
		if err != nil {
			return err
		}
		b.sys.nodes = []*node{nd}
		b.sys.stops = append(b.sys.stops, nd.stop)
		b.sys.edgeURL = nd.url
	}

	rep := b.rep
	rep.Objects = len(b.ds.Objects)
	for _, r := range b.ds.MBRs {
		if b.hotspot.ContainsPoint(r.Center()) {
			rep.HotObjects++
		}
	}
	rep.BufferPages = b.bufPages()
	rep.Stores = len(b.sys.nodes)
	for _, org := range b.sys.orgs() {
		rep.StorePages += org.Stats().OccupiedPages
	}
	rep.FlushPolicy = "none: stores are in memory, nothing is logged"
	if w.durable {
		rep.FlushPolicy = "wal.Options{SyncEvery: 1}: every commit is fsynced before it is acknowledged"
	}
	b.logf("built %d store(s), %d pages, buffer %d pages each, build %.2fs",
		rep.Stores, rep.StorePages, rep.BufferPages, b.buildS)

	// The load generators.
	if w.served {
		c := server.NewClient(b.sys.edgeURL, clients) // Retry stays nil: nothing is ever resent
		b.admin = server.NewClient(b.sys.edgeURL, 1)
		for i := 0; i < clients; i++ {
			b.load = append(b.load, clientTarget{c: c})
		}
	} else {
		b.load = []target{engineTarget{b.sys.nodes[0].org}}
	}

	// The stream. Reads of a read-only workload are verified one by one
	// against the oracle's answers; engine_read replays one round's stream
	// every round (its 20,000 operations are sample enough and answering
	// more by brute force would cost more than the timed rounds), the served
	// workloads read fresh operations every round.
	q := w.query
	q.hotspot = b.hotspot
	readers := len(b.load)
	switch {
	case w.durable:
		q.n = (b.cfg.rounds + 1) * sz.writeOps
		readers = 1
		b.muts = newMutGen(b.ds, b.hotspot, b.cfg.seed^0x6d757473)
	case w.served:
		q.n = (b.cfg.rounds + 1) * b.perRound
	default:
		q.n = b.perRound
	}
	stream := genQueries(b.ds, q, b.cfg.seed)
	var digests []uint64
	if !w.durable {
		digests = newOracle(b.ds.Objects).digests(stream)
		b.logf("oracle answered %d operations", len(stream))
	}
	b.stream, b.digests = stream, digests
	b.reads = make([][]op, readers)
	b.want = make([][]uint64, readers)
	for i := range stream {
		c := i % readers
		b.reads[c] = append(b.reads[c], stream[i])
		if digests != nil {
			b.want[c] = append(b.want[c], digests[i])
		}
	}

	// Warm-up: one untimed round, every answer verified. A wrong answer here
	// ends the run before anything is timed.
	res := runRound(b.round())
	if res.failed > 0 {
		return fmt.Errorf("correctness gate: %d of %d warm-up operations failed: %s",
			res.failed, res.ops, res.firstErr)
	}
	b.logf("warm-up round of %d operations verified", res.ops)
	return nil
}

// round deals the next round's work to the load generators.
func (b *bench) round() []clientWork {
	take := func(c, n int) ([]op, []uint64) {
		lo := b.readAt % len(b.reads[c])
		ops := b.reads[c][lo : lo+n]
		if b.want[c] == nil {
			return ops, nil
		}
		return ops, b.want[c][lo : lo+n]
	}
	var work []clientWork
	if b.w.durable {
		n := b.cfg.sz.writeOps
		ops, _ := take(0, n)
		work = []clientWork{
			{t: b.load[0], ops: b.muts.take(n), gated: true},
			{t: b.load[1], ops: ops},
		}
		b.readAt += n
		return work
	}
	n := b.perRound / len(b.load)
	for c := range b.load {
		ops, want := take(c, n)
		work = append(work, clientWork{t: b.load[c], ops: ops, want: want, gated: true})
	}
	b.readAt += n
	return work
}

// clientWork is what one load generator does in one round.
type clientWork struct {
	t     target
	ops   []op
	want  []uint64 // reference digests; nil: only errors count as failures
	gated bool     // latencies feed lat_p50_ms and lat_p95_ms
	lat   []float64
}

type roundResult struct {
	wall     time.Duration
	ops      int
	failed   int
	firstErr string
	work     []clientWork
}

// runRound runs one closed-loop round: every client executes its operations
// back to back, all clients start together, and the round lasts until the
// last one finishes.
func runRound(work []clientWork) roundResult {
	res := roundResult{work: work}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		start = make(chan struct{})
	)
	for c := range work {
		w := &work[c]
		w.lat = make([]float64, len(w.ops))
		res.ops += len(w.ops)
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed, firstErr := 0, ""
			<-start
			for i := range w.ops {
				t0 := time.Now()
				d, err := w.t.exec(&w.ops[i])
				w.lat[i] = msSince(t0)
				if err == nil && w.want != nil && d != w.want[i] {
					err = errors.New("answer differs from the oracle's")
				}
				if err != nil {
					if failed++; firstErr == "" {
						firstErr = fmt.Sprintf("%s #%d: %v", w.ops[i].kind, i, err)
					}
				}
			}
			mu.Lock()
			res.failed += failed
			if res.firstErr == "" {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// counters is a snapshot of every cumulative count the timed rounds are
// charged with as a difference.
type counters struct {
	mem     runtime.MemStats
	cpu     time.Duration
	cost    disk.Cost
	modelMS float64
	buf     buffer.Stats
	srv     []server.Metrics
	rt      *router.MetricsResponse
	wal     wal.Stats
}

func (b *bench) snapshot() (counters, error) {
	var c counters
	for _, org := range b.sys.orgs() {
		env := org.Env()
		cost := env.Disk.Cost()
		c.cost = c.cost.Add(cost)
		c.modelMS += cost.TimeMS(env.Params())
		st := env.Buf.Stats()
		c.buf.Hits += st.Hits
		c.buf.Misses += st.Misses
		c.buf.Evictions += st.Evictions
		c.buf.Flushed += st.Flushed
	}
	if b.sys.wal != nil {
		c.wal = b.sys.wal.Log().Stats()
	}
	switch {
	case b.sys.pmap != nil:
		raw, err := b.admin.Raw("/metrics")
		if err != nil {
			return c, fmt.Errorf("router /metrics: %w", err)
		}
		c.rt = new(router.MetricsResponse)
		if err := json.Unmarshal(raw, c.rt); err != nil {
			return c, fmt.Errorf("router /metrics: %w", err)
		}
		c.srv = c.rt.PerShard
	case b.w.served:
		m, err := b.admin.Metrics()
		if err != nil {
			return c, fmt.Errorf("server /metrics: %w", err)
		}
		c.srv = []server.Metrics{m}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// timed runs the timed rounds and fills the end-to-end metrics and the
// per-layer metrics that are differences of counters.
func (b *bench) timed() error {
	rep := b.rep
	var opsPerS, p50, p95 []float64
	before, err := b.snapshot()
	if err != nil {
		return err
	}
	setupS := time.Since(processStart).Seconds()
	for r := 0; r < b.cfg.rounds; r++ {
		work := b.round()
		runtime.GC()
		res := runRound(work)
		rep.Attempted += res.ops
		rep.Failed += res.failed
		if rep.FirstErr == "" {
			rep.FirstErr = res.firstErr
		}
		var gated []float64
		for _, w := range res.work {
			if w.gated {
				gated = append(gated, w.lat...)
			}
			for i := range w.ops {
				k := w.ops[i].kind
				b.pooled[k] = append(b.pooled[k], w.lat[i])
			}
		}
		rep.LatencySamples = len(gated)
		opsPerS = append(opsPerS, float64(res.ops)/res.wall.Seconds())
		p50 = append(p50, quantile(gated, 0.50))
		p95 = append(p95, quantile(gated, 0.95))
		b.logf("round %d: %.0f ops/s, p50 %.3f ms, p95 %.3f ms, %d failed",
			r+1, opsPerS[r], p50[r], p95[r], res.failed)
	}
	after, err := b.snapshot()
	if err != nil {
		return err
	}
	ops := float64(rep.Attempted)

	var occupied, live, dead int64
	for _, org := range b.sys.orgs() {
		st := org.Stats()
		occupied += int64(st.OccupiedPages) * disk.PageSize
		live += st.LiveBytes
		dead += st.DeadBytes
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	rep.RoundOpsPerS = opsPerS
	rep.EndToEnd = map[string]float64{
		"setup_s":            setupS,
		"ops_per_s":          median(opsPerS),
		"lat_p50_ms":         median(p50),
		"lat_p95_ms":         median(p95),
		"model_io_ms_per_op": (after.modelMS - before.modelMS) / ops,
		"allocs_per_op":      float64(after.mem.Mallocs-before.mem.Mallocs) / ops,
		"alloc_kb_per_op":    float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ops,
		"space_amp":          float64(occupied) / float64(live),
		"heap_live_mb":       float64(ms.HeapAlloc) / (1 << 20),
	}

	// Per-layer metrics that are counter differences over the timed rounds.
	pl := rep.PerLayer
	cost := after.cost.Sub(before.cost)
	hits := float64(after.buf.Hits - before.buf.Hits)
	misses := float64(after.buf.Misses - before.buf.Misses)
	pl["buffer.hit_ratio"] = ratio(hits, hits+misses)
	pl["buffer.misses_per_op"] = misses / ops
	pl["buffer.evictions_per_op"] = float64(after.buf.Evictions-before.buf.Evictions) / ops
	pl["disk.read_requests_per_op"] = float64(cost.ReadRequests) / ops
	pl["disk.pages_read_per_op"] = float64(cost.PagesRead) / ops
	pl["disk.pages_written_per_op"] = float64(cost.PagesWritten) / ops
	pl["store.build_s"] = b.buildS
	pl["store.dead_byte_share"] = float64(dead) / float64(live+dead)
	if b.sys.wal != nil {
		muts := float64(b.cfg.rounds * b.cfg.sz.writeOps)
		pl["wal.fsyncs_per_mutation"] = float64(after.wal.Syncs-before.wal.Syncs) / muts
		pl["wal.bytes_per_mutation"] = float64(after.wal.Bytes-before.wal.Bytes) / muts
	}
	var batches, jobs, rejected int64
	for i := range after.srv {
		batches += after.srv[i].Batches - before.srv[i].Batches
		jobs += after.srv[i].BatchedJobs - before.srv[i].BatchedJobs
		rejected += after.srv[i].Rejected - before.srv[i].Rejected
	}
	if batches > 0 {
		pl["server.mean_batch"] = float64(jobs) / float64(batches)
		pl["server.batches_per_op"] = float64(batches) / ops
		pl["server.rejected_per_op"] = float64(rejected) / ops
	}
	if after.rt != nil {
		var scatters, width, calls, retries int64
		for w := range after.rt.Fanout {
			n := after.rt.Fanout[w] - before.rt.Fanout[w]
			scatters += n
			width += n * int64(w)
		}
		for i := range after.rt.ShardTier {
			a, z := before.rt.ShardTier[i], after.rt.ShardTier[i]
			calls += z.Calls - a.Calls
			retries += z.Retry.RetriedConn + z.Retry.RetriedOverload - a.Retry.RetriedConn - a.Retry.RetriedOverload
		}
		pl["router.fanout_mean"] = ratio(float64(width), float64(scatters))
		pl["router.knn_waves_mean"] = ratio(float64(after.rt.KNNWaves-before.rt.KNNWaves),
			float64(after.rt.KNNQueries-before.rt.KNNQueries))
		pl["router.shard_calls_per_op"] = float64(calls) / ops
		pl["router.retries_per_op"] = float64(retries) / ops
		counts := b.sys.pmap.Counts(b.ds.MBRs)
		most := 0
		for _, n := range counts {
			most = max(most, n)
		}
		pl["shard.balance_max_over_mean"] = float64(most) * float64(len(counts)) / float64(len(b.ds.MBRs))
	}
	pl["client.window_p50_ms"] = median(b.pooled[opWindow])
	pl["client.point_p50_ms"] = median(b.pooled[opPoint])
	pl["client.knn_p50_ms"] = median(b.pooled[opKNN])
	var mutLat, all []float64
	for k, lat := range b.pooled {
		if opKind(k) >= opInsert {
			mutLat = append(mutLat, lat...)
		}
		all = append(all, lat...)
	}
	pl["client.mutate_p50_ms"] = median(mutLat)
	pl["client.lat_p99_ms"] = quantile(all, 0.99)
	pl["client.lat_max_ms"] = quantile(all, 1)
	pl["runtime.cpu_ms_per_op"] = float64((after.cpu - before.cpu).Nanoseconds()) / 1e6 / ops
	pl["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	pl["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	pl["bench.round_spread"] = quantile(opsPerS, 1) / quantile(opsPerS, 0)
	return nil
}

// finalCheck is the end of the served_write correctness gate: the served
// store must hold exactly the objects the mutation stream left live and
// answer windows like a scan of them, and so must the store recovered from
// the log directory alone after the server and the log are closed — every
// acknowledged write is readable after a restart.
func (b *bench) finalCheck() error {
	want := oracleOfLive(b.muts.live)
	q := b.w.query
	q.n, q.hotspot = b.cfg.sz.finalCheck, b.hotspot
	windows := genQueries(b.ds, q, b.cfg.seed^0x636865636b)
	digests := want.digests(windows)
	compare := func(what string, t target, objects int) error {
		if objects != len(want.objs) {
			return fmt.Errorf("%s holds %d objects, the mutation stream left %d live", what, objects, len(want.objs))
		}
		for i := range windows {
			d, err := t.exec(&windows[i])
			if err != nil {
				return fmt.Errorf("%s, window %d: %w", what, i, err)
			}
			if d != digests[i] {
				return fmt.Errorf("%s, window %d: answer differs from a scan of the live objects", what, i)
			}
		}
		return nil
	}
	st, err := b.admin.Stats()
	if err != nil {
		return err
	}
	if err := compare("served store", clientTarget{c: b.admin}, st.Objects); err != nil {
		return err
	}

	// Restart: stop the server, close the log, recover from the directory.
	if err := b.sys.close(); err != nil {
		return err
	}
	err = b.sys.wal.Close()
	b.sys.wal = nil
	if err != nil {
		return err
	}
	t0 := time.Now()
	rec, rst, err := wal.Recover(filepath.Join(b.tmp, "wal"), func(p disk.Params) (*store.Env, error) {
		return store.NewEnvWithParams(b.bufPages(), p), nil
	}, wal.Options{SyncEvery: 1})
	if err != nil {
		return fmt.Errorf("recovering the log: %w", err)
	}
	b.rep.PerLayer["wal.recover_s"] = time.Since(t0).Seconds()
	b.logf("recovered: %d records replayed in %.2fs", rst.Replayed, time.Since(t0).Seconds())
	err = compare("recovered store", engineTarget{rec}, rec.Stats().Objects)
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	return err
}

// run executes one workload run and returns its report.
func run(cfg runConfig) (rep *report, err error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	b := &bench{cfg: cfg, w: w, rep: &report{
		Workload: w.Name, Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Loop: "closed", Clients: clients, Rounds: cfg.rounds,
		PerLayer: make(map[string]float64),
	}}
	if !w.served {
		b.rep.Clients = 1
	}
	defer func() {
		if cerr := b.cleanup(); err == nil {
			err = cerr
		}
	}()
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.rep.OpsPerRound = b.perRound
	if err := b.timed(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.ladder(); err != nil {
			return nil, err
		}
	}
	if w.durable {
		if err := b.finalCheck(); err != nil {
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
	}
	b.rep.Correct = b.rep.Failed == 0
	b.rep.WallS = time.Since(processStart).Seconds()
	return b.rep, nil
}

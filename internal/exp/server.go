package exp

import (
	"fmt"
	"runtime"
	"strings"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/server"
)

// The serving benchmark asks what each choice the serving layer offers is
// worth, on the served fixture (served.go): the default server — concurrent
// queries, group-committed mutations — against one-request-at-a-time
// execution, across a closed-loop client sweep; per-request tracing against
// the default server, at the largest client count; and the 2Q admission
// policy against LRU on a scan-polluted hotspot workload.

// servedThrottle is the disk wall-clock factor of the measured runs of the
// server and shard benchmarks: a 15 ms modelled request sleeps 300 µs.
const servedThrottle = 0.02

// openRateX scales the offered rate of the open-loop arm relative to the
// serial server's capacity 1/serviceTime: offered load twice what serialized
// execution could absorb.
const openRateX = 2

// serverModel is the deterministic reference row of one organization: the
// whole stream executed serially in-process, modelled cost only.
type serverModel struct {
	Org           string  `json:"org"`
	Requests      int     `json:"requests"`
	Answers       int     `json:"answers"`
	Candidates    int     `json:"candidates"`
	ModelIOSec    float64 `json:"model_io_sec"`
	ModelMSPerReq float64 `json:"model_ms_per_request"`
}

// serverRun is one measured arm: organization × mode × client count.
type serverRun struct {
	Org string `json:"org"`
	// Mode is how the arm was served: "serial" (MaxBatch 1: one request at a
	// time) and "batched" (the default server: concurrent queries,
	// group-committed mutations; the name predates queries leaving the
	// dispatcher's batches) across the client sweep; "traced" (the default
	// server, every request asking for its span tree) at the largest client
	// count; "open" (the default server, Poisson arrivals, clients 0).
	Mode    string `json:"mode"`
	Clients int    `json:"clients"`
	servedRun
}

// serverAdmissionRun is one replacement policy serving the same hotspot+scan
// workload over HTTP. Hits and misses are /metrics deltas; the drive is
// serial, so they are deterministic — but they describe buffer policy
// behaviour, not the paper's cost model.
type serverAdmissionRun struct {
	Policy   string  `json:"policy"` // "lru" or "2q"
	Ops      int     `json:"ops"`
	Answers  int     `json:"answers"`
	Hits     int64   `json:"buffer_hits"`
	Misses   int64   `json:"buffer_misses"`
	HitRatio float64 `json:"buffer_hit_ratio"`
}

// serverResult is the outcome of the serving benchmark, emitted as
// BENCH_server.json.
type serverResult struct {
	Scale             int     `json:"scale"`
	Requests          int     `json:"requests"`
	Seed              int64   `json:"seed"`
	Clients           []int   `json:"clients"`
	Throttle          float64 `json:"throttle"`
	WindowArea        float64 `json:"window_area"`
	K                 int     `json:"k"`
	AdmissionOps      int     `json:"admission_ops"`
	AdmissionBufPages int     `json:"admission_buf_pages"`
	GOMAXPROCS        int     `json:"wall_gomaxprocs"` // env-dependent, stripped like a measurement

	Model     []serverModel        `json:"model"`
	Runs      []serverRun          `json:"runs"`
	Admission []serverAdmissionRun `json:"admission"`

	// Agree: every answer served over HTTP — plain and traced, request by
	// request — was identical to the serial in-process answer. Held in go
	// test by server.TestServedAnswersMatchInProcess and
	// TestTracedAnswersIdentical.
	Agree bool `json:"agree"`
	// AdmissionAtLeastLRU: the 2Q ghost-list policy's hit ratio was at least
	// plain LRU's on the hotspot+scan workload (buffer.TestScanResistance).
	AdmissionAtLeastLRU bool `json:"admission_at_least_lru"`

	// The wall-clock observations, each the worst organization's ratio at
	// the largest client count: batched over serial throughput (WallBatchGain
	// says whether it exceeded 1 at every swept count ≥ 8), batched over
	// traced (what tracing costs).
	WallBatchGain      bool    `json:"wall_batch_gain"`
	WallBatchGainX     float64 `json:"wall_batch_gain_x"`
	WallTraceOverheadX float64 `json:"wall_tracing_overhead_x"`
}

// Failed implements result.
func (r serverResult) Failed() []string {
	return failed(verdict{"agree", r.Agree}, verdict{"admission_at_least_lru", r.AdmissionAtLeastLRU})
}

// serverBench measures the serving layer: all three organizations are built
// from the same dataset and served over HTTP; every mode is first replayed
// serially against the in-process reference answers, then the deterministic
// stream runs through the closed-loop client sweep against the serialized
// and the default server, once traced at the largest client count,
// and once open-loop at more load than serialized execution could absorb. The modelled reference columns and
// the admission rows are byte-reproducible.
//
// The stream has 360 requests and the client sweep is 1, 2, 4, 8 and 16;
// the admission rows run 1500 ops on a 192-page buffer, small enough that
// sequential scans flood plain LRU. The smoke preset runs 120 requests from
// 1 and 8 clients and 600 admission ops on 96 pages.
func serverBench(o Options, smoke bool, sweep []int) result {
	o = o.WithDefaults()
	clients, requests, admissionOps, admissionBuf := sweep, 360, 1500, 192
	if smoke {
		o = o.smoke(0)
		requests, admissionOps, admissionBuf = 120, 600, 96
		if len(clients) == 0 {
			clients = []int{1, 8}
		}
	}
	if len(clients) == 0 {
		clients = []int{1, 2, 4, 8, 16}
	}
	spec := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed}
	ds := datagen.Generate(spec)
	stream := ds.Stream(datagen.StreamSpec{
		N: requests, WindowArea: streamWindowArea, K: streamK, Seed: o.Seed + 4,
	})
	maxClients := clients[len(clients)-1]

	res := serverResult{
		Scale:             o.Scale,
		Requests:          requests,
		Seed:              o.Seed,
		Clients:           clients,
		Throttle:          servedThrottle,
		WindowArea:        streamWindowArea,
		K:                 streamK,
		AdmissionOps:      admissionOps,
		AdmissionBufPages: admissionBuf,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Agree:             true,
		WallBatchGain:     true,
	}
	gainMeasured := false
	for _, kind := range allOrgs {
		org := build(kind, ds, o.storeConfig()).Org
		params := org.Env().Params()
		o.Progress("server: built %s (scale %d)", kind, o.Scale)

		// The reference pass: modelled columns and the per-request answers
		// every served arm is checked against.
		before := org.Env().Disk.Cost()
		refs := applyAll(org, stream)
		cost := org.Env().Disk.Cost().Sub(before)
		model := serverModel{Org: string(kind), Requests: len(stream)}
		model.Answers, model.Candidates = sumAnswers(refs)
		model.ModelIOSec = cost.TimeSec(params)
		model.ModelMSPerReq = cost.TimeMS(params) / float64(len(stream))
		res.Model = append(res.Model, model)
		o.Progress("server: %s model %.1f ms/request over %d requests",
			kind, model.ModelMSPerReq, model.Requests)

		// Verification: plain and traced once each, serially, unthrottled.
		client, stop := startServer(org, server.Config{})
		for _, traced := range []bool{false, true} {
			if !replay(view(client, traced), stream, refs) {
				res.Agree = false
				o.Progress("server: %s answers (traced=%v) DIFFER from in-process", kind, traced)
			}
		}
		stop()

		// Measured arms: throttled disk, a fresh server per arm so its
		// counters start at zero. MaxInFlight sits above the offered
		// concurrency: admission control is a production guard, not part of
		// the measurement — a 429 would make the deterministic answer and
		// error counts timing-dependent.
		setThrottle(servedThrottle, org)
		type armKey struct {
			mode    string
			clients int
		}
		qps := map[armKey]float64{}
		measured := func(mode string, n int, traced bool, scfg server.Config, drive func(doFunc) *load) {
			client, stop := startServer(org, scfg)
			defer stop()
			run := serverRun{Org: string(kind), Mode: mode, Clients: n,
				servedRun: measure(view(client, traced), []*server.Client{client}, drive)}
			qps[armKey{mode, n}] = run.WallQPS
			res.Runs = append(res.Runs, run)
			o.Progress("server: %s %s clients=%d %.0f qps p95=%.2f ms",
				kind, mode, n, run.WallQPS, run.WallP95MS)
		}
		for _, mode := range []string{"serial", "batched"} {
			for _, n := range clients {
				scfg := server.Config{MaxInFlight: n + 1}
				if mode == "serial" {
					scfg.MaxBatch = 1 // every request holds the organization lock alone
				}
				measured(mode, n, false, scfg, closed(stream, n))
			}
		}
		measured("traced", maxClients, true, server.Config{MaxInFlight: maxClients + 1},
			closed(stream, maxClients))
		// Open loop: the offered rate derives from the modelled service time
		// (deterministic config). Queueing delay shows in the quantiles.
		rate := openRateX * 1000 / (model.ModelMSPerReq * servedThrottle)
		measured("open", 0, false, server.Config{MaxInFlight: len(stream) + 1},
			func(do doFunc) *load { return openLoop(do, stream, rate, o.Seed+5) })
		setThrottle(0, org)

		for _, n := range clients {
			if n >= 8 {
				gainMeasured = true
				if qps[armKey{"batched", n}] <= qps[armKey{"serial", n}] {
					res.WallBatchGain = false
				}
			}
		}
		batched := qps[armKey{"batched", maxClients}]
		if x := ratio(batched, qps[armKey{"serial", maxClients}]); res.WallBatchGainX == 0 || x < res.WallBatchGainX {
			res.WallBatchGainX = x
		}
		res.WallTraceOverheadX = max(res.WallTraceOverheadX, ratio(batched, qps[armKey{"traced", maxClients}]))
	}
	// No swept client count reached 8: the verdict has no data points and
	// must not claim a win.
	res.WallBatchGain = res.WallBatchGain && gainMeasured

	res.Admission = admissionRuns(o, ds, admissionOps, admissionBuf)
	res.AdmissionAtLeastLRU = res.Admission[1].HitRatio >= res.Admission[0].HitRatio
	return res
}

// admissionRuns serves the cluster organization from a small buffer under
// each replacement policy and drives the same serial hotspot workload with
// periodic large scans through HTTP — the access pattern 2Q's ghost list
// exists for. Hit ratios come from /metrics deltas over the serving phase
// (construction warms the buffer differently per policy and is not what the
// rows compare).
func admissionRuns(o Options, ds *datagen.Dataset, n, bufPages int) []serverAdmissionRun {
	ops := ds.MixedWorkload(datagen.MixSpec{
		Ops:        n,
		InsertFrac: 0.05, DeleteFrac: 0.05, UpdateFrac: 0.1, QueryFrac: 0.8,
		HotspotFrac: 0.9, HotspotSide: 0.15, WindowArea: 0.002,
		Seed: o.Seed + 16,
	})
	scans := ds.Windows(0.12, 16, o.Seed+17)

	var runs []serverAdmissionRun
	for _, pol := range []string{"lru", "2q"} {
		org := build(orgCluster, ds, spatialcluster.StoreConfig{
			BufferPages: bufPages, BufferPolicy: pol,
		}).Org
		client, stop := startServer(org, server.Config{MaxInFlight: 4})

		run := serverAdmissionRun{Policy: pol, Ops: len(ops)}
		m0, err := client.Metrics()
		for i := 0; i < len(ops) && err == nil; i++ {
			var ids, scanned []uint64
			if ids, _, err = send(client, ops[i]); err == nil && i%12 == 11 {
				// Every 12th op, a large scan window floods the buffer — the
				// read pattern plain LRU surrenders its hot set to.
				scanned, _, err = send(client, datagen.Op{Kind: datagen.OpWindow, Window: scans[i/12%len(scans)]})
			}
			run.Answers += len(ids) + len(scanned)
		}
		m1, err1 := client.Metrics()
		stop()
		if err != nil || err1 != nil {
			panic(fmt.Sprintf("exp: server bench admission %s: %v %v", pol, err, err1))
		}
		run.Hits = m1.BufferHits - m0.BufferHits
		run.Misses = m1.BufferMisses - m0.BufferMisses
		if total := run.Hits + run.Misses; total > 0 {
			run.HitRatio = float64(run.Hits) / float64(total)
		}
		runs = append(runs, run)
		o.Progress("server: admission %s hit ratio %.3f (%d hits / %d misses)",
			pol, run.HitRatio, run.Hits, run.Misses)
	}
	return runs
}

// Render formats the result as a text report.
func (r serverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving benchmark (scale=%d, %d requests/run, throttle %gx, GOMAXPROCS=%d)\n",
		r.Scale, r.Requests, r.Throttle, r.GOMAXPROCS)
	fmt.Fprintf(&b, "\nModelled reference (serial, in-process):\n")
	fmt.Fprintf(&b, "  %-14s %9s %9s %11s %13s\n", "org", "requests", "answers", "model I/O s", "model ms/req")
	for _, m := range r.Model {
		fmt.Fprintf(&b, "  %-14s %9d %9d %11.1f %13.2f\n",
			m.Org, m.Requests, m.Answers, m.ModelIOSec, m.ModelMSPerReq)
	}
	fmt.Fprintf(&b, "\nMeasured sweep (closed loop unless open):\n")
	fmt.Fprintf(&b, "  %-14s %-8s %8s %9s %9s %9s %9s %9s %7s\n",
		"org", "mode", "clients", "qps", "p50 ms", "p95 ms", "p99 ms", "batches", "avg/b")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %-14s %-8s %8d %9.0f %9.2f %9.2f %9.2f %9d %7.1f\n",
			run.Org, run.Mode, run.Clients, run.WallQPS,
			run.WallP50MS, run.WallP95MS, run.WallP99MS, run.WallBatches, run.WallMeanBatch)
	}
	fmt.Fprintf(&b, "\nBuffer admission (%d pages, hotspot workload with scans):\n", r.AdmissionBufPages)
	fmt.Fprintf(&b, "  %-6s %10s %10s %10s %10s\n", "policy", "answers", "hits", "misses", "hit ratio")
	for _, run := range r.Admission {
		fmt.Fprintf(&b, "  %-6s %10d %10d %10d %10.3f\n", run.Policy, run.Answers, run.Hits, run.Misses, run.HitRatio)
	}
	maxClients := r.Clients[len(r.Clients)-1]
	fmt.Fprintf(&b, "\nHTTP answers identical to in-process (JSON, traced): %v\n", r.Agree)
	fmt.Fprintf(&b, "2Q hit ratio at least LRU:                       %v\n", r.AdmissionAtLeastLRU)
	fmt.Fprintf(&b, "default server beats serialized at >= 8 clients: %v\n", r.WallBatchGain)
	fmt.Fprintf(&b, "worst organization at %d clients: batched/serial %.2fx, batched/traced %.2fx\n",
		maxClients, r.WallBatchGainX, r.WallTraceOverheadX)
	return b.String()
}

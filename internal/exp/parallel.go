package exp

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/join"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
)

// The parallel benchmark is the one in-process worker sweep: the C-1 ⋈ C-2
// join and a window-query batch, per organization, across worker counts,
// with the engine's stage clocks (obs.JoinStages; for the windows, the lock
// wait each query tallies itself beside its execution time) attached — so a
// flat speedup curve comes with the answer to "where does it serialize".
//
// Determinism contract: cardinalities and modelled costs come from fixed
// stores and a fixed workload; every wall-clock or timing-derived field
// carries a wall_ prefix. A window row's model_io_sec is taken from the
// 1-worker run — with one worker the execution order is the stream order, so
// the charged model cost is reproducible; at higher worker counts buffer-hit
// patterns depend on scheduling.

// parallelJoinRun is one join execution: organization × worker count. The
// serialized stages (mbr-join, prepare-fetch) run on the
// dispatcher goroutine — their sum is a lower bound on the wall clock no
// worker count can remove; refine is summed busy time across workers.
type parallelJoinRun struct {
	Org         string  `json:"org"`
	Workers     int     `json:"workers"`
	ResultPairs int     `json:"result_pairs"`
	MBRPairs    int     `json:"mbr_pairs"`
	ModelIOSec  float64 `json:"model_io_sec"` // modelled cost; must not vary with workers

	WallSec        float64 `json:"wall_sec"`
	WallSpeedup    float64 `json:"wall_speedup_vs_1"` // the organization's 1-worker wall / this
	WallMBRJoinSec float64 `json:"wall_mbr_join_sec"`
	WallPrepareSec float64 `json:"wall_prepare_fetch_sec"`
	WallStallSec   float64 `json:"wall_stall_sec"` // dispatcher blocked on a free refine worker
	WallRefineSec  float64 `json:"wall_refine_sec"`
	WallSerialFrac float64 `json:"wall_serial_frac"` // (mbr-join + prepare-fetch) / wall
}

// parallelQueryRun is one window-query batch: organization × worker count.
type parallelQueryRun struct {
	Org        string  `json:"org"`
	Workers    int     `json:"workers"`
	Queries    int     `json:"queries"`
	Answers    int     `json:"answers"`
	ModelIOSec float64 `json:"model_io_sec"` // of the organization's 1-worker run

	WallSec         float64 `json:"wall_sec"`
	WallQueriesSec  float64 `json:"wall_queries_per_sec"`
	WallSpeedup     float64 `json:"wall_speedup_vs_1"`
	WallLockWaitSec float64 `json:"wall_lock_wait_sec"` // summed over the queries: their own Env.mu wait
	WallExecSec     float64 `json:"wall_exec_sec"`      // summed over the queries: time executing under the lock
}

// parallelResult is the outcome of the parallel-engine benchmark, emitted as
// BENCH_parallel.json.
type parallelResult struct {
	GOMAXPROCS int                `json:"wall_gomaxprocs"` // env-dependent, stripped like a measurement
	Scale      int                `json:"scale"`
	JoinRuns   []parallelJoinRun  `json:"join_runs"`
	QueryRuns  []parallelQueryRun `json:"query_runs"`

	// CostInvariant / PairsMatch: per organization, the modelled join cost
	// and the join cardinalities were identical across every worker count —
	// the dispatcher charges all I/O in plane order. Held in go test by
	// join.TestOverlapDeterministic.
	CostInvariant bool `json:"cost_invariant"`
	PairsMatch    bool `json:"pairs_match"`

	// WallSerializationPoint names the dominant serialized stage of the
	// cluster organization's join at the highest worker count — the
	// measured answer to "why doesn't the join speed up".
	WallSerializationPoint string `json:"wall_serialization_point"`
}

// Failed implements result.
func (r parallelResult) Failed() []string {
	return failed(verdict{"cost_invariant", r.CostInvariant}, verdict{"pairs_match", r.PairsMatch})
}

// parallelBench measures the wall-clock behaviour of the parallel query/join
// engine per organization: the spatial join C-1 ⋈ C-2 (version b candidate
// density, SLM reads) across worker counts, and
// concurrent 0.1% window queries on A-1. Modelled costs must not depend on
// the worker count, so the run also verifies that invariant and reports it.
// The worker counts are the sweep without repeats, by default 1, 2, 4 and
// GOMAXPROCS (1 and 2 at the smoke preset).
func parallelBench(o Options, smoke bool, sweep []int) result {
	o = o.WithDefaults()
	switch {
	case smoke:
		o = o.smoke(40)
		if len(sweep) == 0 {
			sweep = []int{1, 2}
		}
	case len(sweep) == 0:
		sweep = []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	}
	counts := distinct(sweep)
	maxW := slices.Max(counts)
	nsToSec := func(ns int64) float64 { return float64(ns) / 1e9 }

	res := parallelResult{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         o.Scale,
		CostInvariant: true,
		PairsMatch:    true,
	}

	// --- Join: same organizations, same buffer, varying workers. The
	// serialized PrepareFetch stays in plane order whatever the pool does,
	// so the modelled cost and the result must stay invariant.
	bufPages := o.scaledBuffer(1600)
	for _, kind := range allOrgs {
		o.Progress("parallel: building join inputs for %s (scale %d)", kind, o.Scale)
		orgR, orgS := joinInputs(o, kind, versionB)
		first := len(res.JoinRuns)
		for _, w := range counts {
			CoolObjectPages(orgR)
			CoolObjectPages(orgS)
			orgR.Env().Disk.ResetCost()
			orgS.Env().Disk.ResetCost()
			var st obs.JoinStages
			start := time.Now()
			jr := join.Run(orgR, orgS, join.Config{
				BufferPages: bufPages, Technique: store.TechSLM, Workers: w, Stages: &st,
			})
			run := parallelJoinRun{
				Org:            string(kind),
				Workers:        w,
				ResultPairs:    jr.ResultPairs,
				MBRPairs:       jr.MBRPairs,
				ModelIOSec:     jr.IOTimeMS(orgR.Env().Params()) / 1000,
				WallSec:        time.Since(start).Seconds(),
				WallMBRJoinSec: nsToSec(st.MBRJoinNS.Load()),
				WallPrepareSec: nsToSec(st.PrepareNS.Load()),
				WallStallSec:   nsToSec(st.StallNS.Load()),
				WallRefineSec:  nsToSec(st.RefineNS.Load()),
			}
			run.WallSerialFrac = ratio(run.WallMBRJoinSec+run.WallPrepareSec, run.WallSec)
			base := run
			if len(res.JoinRuns) > first {
				base = res.JoinRuns[first]
			}
			if run.ModelIOSec != base.ModelIOSec {
				res.CostInvariant = false
			}
			if run.ResultPairs != base.ResultPairs || run.MBRPairs != base.MBRPairs {
				res.PairsMatch = false
			}
			res.JoinRuns = append(res.JoinRuns, run)
			o.Progress("parallel: join %s workers=%d wall=%.3fs serial-frac=%.2f",
				kind, w, run.WallSec, run.WallSerialFrac)
		}
		runs := res.JoinRuns[first:]
		base := baseWall(len(runs), func(i int) (int, float64) { return runs[i].Workers, runs[i].WallSec })
		for i := range runs {
			runs[i].WallSpeedup = ratio(base, runs[i].WallSec)
		}
	}
	res.WallSerializationPoint = serializationPoint(res.JoinRuns, maxW)

	// --- Window-query throughput on a shared buffer.
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed,
	})
	ws := ds.Windows(0.001, o.Queries, 17)
	for _, kind := range allOrgs {
		org := build(kind, ds, spatialcluster.StoreConfig{BufferPages: bufPages}).Org
		params := org.Env().Params()
		first := len(res.QueryRuns)
		var model float64
		for _, w := range counts {
			CoolObjectPages(org)
			before := org.Env().Disk.Cost()
			var answers, lockNS, execNS atomic.Int64
			start := time.Now()
			workers := runPool(len(ws), w, func(i int) {
				t0 := time.Now()
				r := org.WindowQuery(ws[i], store.TechSLM)
				answers.Add(int64(len(r.IDs)))
				lockNS.Add(r.LockWaitNS)
				execNS.Add(time.Since(t0).Nanoseconds() - r.LockWaitNS)
			})
			wall := time.Since(start).Seconds()
			if w == 1 {
				model = org.Env().Disk.Cost().Sub(before).TimeSec(params)
			}
			res.QueryRuns = append(res.QueryRuns, parallelQueryRun{
				Org:             string(kind),
				Workers:         workers,
				Queries:         len(ws),
				Answers:         int(answers.Load()),
				WallSec:         wall,
				WallQueriesSec:  ratio(float64(len(ws)), wall),
				WallLockWaitSec: nsToSec(lockNS.Load()),
				WallExecSec:     nsToSec(execNS.Load()),
			})
			o.Progress("parallel: queries %s workers=%d %.0f q/s", kind, workers, ratio(float64(len(ws)), wall))
		}
		runs := res.QueryRuns[first:]
		base := baseWall(len(runs), func(i int) (int, float64) { return runs[i].Workers, runs[i].WallSec })
		for i := range runs {
			runs[i].ModelIOSec = model
			runs[i].WallSpeedup = ratio(base, runs[i].WallSec)
		}
	}
	return res
}

// ratio is a/b for the throughput ratios of the reports, 0 when b measured
// nothing (JSON has no Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// distinct returns xs without repeats, in first-seen order.
func distinct(xs []int) []int {
	var out []int
	for _, x := range xs {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// runPool runs query(0) … query(n-1) on min(workers, n) goroutines — the
// caller's and the rest spawned — that take indexes in order from one counter,
// and returns how many ran. It takes no lock: each query locks the store
// itself.
func runPool(n, workers int, query func(i int)) int {
	workers = min(workers, n)
	var next atomic.Int64
	worker := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			query(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	return workers
}

// baseWall returns the wall clock speedups are relative to: the 1-worker
// run's, falling back to the first run when 1 worker was not measured.
func baseWall(n int, run func(i int) (workers int, wall float64)) float64 {
	for i := 0; i < n; i++ {
		if w, wall := run(i); w == 1 {
			return wall
		}
	}
	_, wall := run(0)
	return wall
}

// serializationPoint reads the headline observation off the cluster
// organization's join row at the highest worker count: its dominant
// serialized stage. The refine stage is summed busy time across workers, so
// its wall-clock contribution is the per-worker share; mbr-join and
// prepare-fetch run on the dispatcher goroutine and contribute their full
// wall.
func serializationPoint(runs []parallelJoinRun, maxW int) (point string) {
	for _, run := range runs {
		if run.Org != string(orgCluster) || run.Workers != maxW {
			continue
		}
		best := run.WallMBRJoinSec
		point = "mbr_join"
		if run.WallPrepareSec > best {
			point, best = "prepare_fetch", run.WallPrepareSec
		}
		if run.WallRefineSec/float64(maxW) > best {
			point = "refine"
		}
	}
	return point
}

// Render formats the result as a text report.
func (r parallelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel engine benchmark (GOMAXPROCS=%d, scale=%d)\n", r.GOMAXPROCS, r.Scale)
	fmt.Fprintf(&b, "\nSpatial join C-1 x C-2 (version b, SLM read; serialized stages vs refine, seconds):\n")
	fmt.Fprintf(&b, "  %-14s %7s %8s %8s %9s %8s %8s %8s %7s %12s\n", "org", "workers",
		"wall s", "speedup", "mbr-join", "prepare", "stall", "refine", "serial", "model I/O s")
	for _, jr := range r.JoinRuns {
		fmt.Fprintf(&b, "  %-14s %7d %8.3f %7.2fx %9.3f %8.3f %8.3f %8.3f %6.0f%% %12.1f\n",
			jr.Org, jr.Workers, jr.WallSec, jr.WallSpeedup, jr.WallMBRJoinSec,
			jr.WallPrepareSec, jr.WallStallSec, jr.WallRefineSec, 100*jr.WallSerialFrac, jr.ModelIOSec)
	}
	fmt.Fprintf(&b, "\nConcurrent window queries (0.1%% windows, SLM read; lock wait vs execute, busy seconds):\n")
	fmt.Fprintf(&b, "  %-14s %7s %8s %10s %8s %8s %8s %12s\n",
		"org", "workers", "wall s", "queries/s", "speedup", "lock s", "exec s", "model I/O s")
	for _, qr := range r.QueryRuns {
		fmt.Fprintf(&b, "  %-14s %7d %8.3f %10.0f %7.2fx %8.3f %8.3f %12.1f\n",
			qr.Org, qr.Workers, qr.WallSec, qr.WallQueriesSec, qr.WallSpeedup,
			qr.WallLockWaitSec, qr.WallExecSec, qr.ModelIOSec)
	}
	fmt.Fprintf(&b, "\nmodelled cost invariant across workers: %v\n", r.CostInvariant)
	fmt.Fprintf(&b, "join cardinalities invariant across workers: %v\n", r.PairsMatch)
	fmt.Fprintf(&b, "measured serialization point (cluster join, max workers): %s\n", r.WallSerializationPoint)
	return b.String()
}

package store

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/obs"
)

// ThroughputResult reports a parallel window-query run: the aggregate answer
// and I/O tallies plus the observed wall-clock throughput.
type ThroughputResult struct {
	Queries    int
	Answers    int       // summed qualifying objects over all queries
	Candidates int       // summed filter-step candidates
	Cost       disk.Cost // aggregate modelled I/O of the whole run
	Workers    int
	WallSec    float64
	QueriesSec float64 // queries per wall-clock second
}

// RunWindowQueriesParallel executes the window queries concurrently through
// RunQueriesParallel and reports aggregate results and wall-clock throughput.
func RunWindowQueriesParallel(org Organization, ws []geom.Rect, tech Technique, workers int) ThroughputResult {
	return RunQueriesParallel(org, len(ws), workers, nil, func(i int) (answers, candidates int) {
		res := org.WindowQuery(ws[i], tech)
		return len(res.IDs), res.Candidates
	})
}

// RunNearestQueriesParallel is RunWindowQueriesParallel for k-NN queries.
func RunNearestQueriesParallel(org Organization, pts []geom.Point, k int, workers int) ThroughputResult {
	return RunQueriesParallel(org, len(pts), workers, nil, func(i int) (answers, candidates int) {
		res := org.NearestQuery(pts[i], k)
		return len(res.IDs), res.Candidates
	})
}

// RunQueriesParallel is the one parallel read entry point: query(0) …
// query(n-1) are handed out in index order by an atomic counter to a bounded
// pool sharing the organization's buffer and disk — the caller's goroutine
// plus min(workers, n)-1 spawned ones. One worker runs the queries in a loop
// on the caller's goroutine, spawning and allocating nothing: that is the
// server's per-request path. workers <= 0 selects GOMAXPROCS. query may
// call any read method of org (window, point and k-NN can mix in one call)
// and keeps its own per-query result; the driver only sums the two counts it
// returns. The organization must be flushed (construction finished): the read
// path is concurrency-safe, construction is not.
//
// Each query runs under the environment's read lock, which no other query
// path takes, so the update engine's mutations (Insert, Delete, Update, unit
// repacks) may run concurrently with this function — mutations serialize
// against in-flight queries and each query sees a consistent organization.
//
// Per-query Cost fields are not meaningful under concurrency (the modelled
// disk serializes no requests between snapshots), so only the aggregate cost
// over the whole run is reported. Answer sets are unaffected by concurrency.
//
// When st is non-nil, each worker's read-lock wait and under-lock execution
// time accumulate into it, so a benchmark can tell whether a flat speedup
// curve is lock contention or serialized work elsewhere. A nil st takes the
// unobserved fast path.
func RunQueriesParallel(org Organization, n, workers int, st *obs.ParallelStages, query func(i int) (answers, candidates int)) ThroughputResult {
	if n == 0 {
		return ThroughputResult{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	env := org.Env()
	before := env.Disk.Cost()
	start := time.Now()
	var answers, candidates int64
	if workers == 1 {
		for i := 0; i < n; i++ {
			a, c := runLocked(env, st, query, i)
			answers += int64(a)
			candidates += int64(c)
		}
	} else {
		answers, candidates = runSpawned(env, st, n, workers, query)
	}

	wall := time.Since(start).Seconds()
	out := ThroughputResult{
		Queries:    n,
		Answers:    int(answers),
		Candidates: int(candidates),
		Cost:       env.Disk.Cost().Sub(before),
		Workers:    workers,
		WallSec:    wall,
	}
	if wall > 0 {
		out.QueriesSec = float64(n) / wall
	}
	return out
}

// runSpawned is RunQueriesParallel's pool of several workers: the caller's
// goroutine and workers-1 spawned ones take indices from one counter.
func runSpawned(env *Env, st *obs.ParallelStages, n, workers int, query func(i int) (answers, candidates int)) (answers, candidates int64) {
	var sumA, sumC, next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			a, c := runLocked(env, st, query, i)
			sumA.Add(int64(a))
			sumC.Add(int64(c))
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
	return sumA.Load(), sumC.Load()
}

// runLocked runs query(i) under env's read lock and releases it even if the
// query panics: a query over a damaged page does, and a caller that recovers
// (net/http does, in the daemons) must not be left with a store that every
// later mutation waits to lock, and every later query behind that mutation.
func runLocked(env *Env, st *obs.ParallelStages, query func(i int) (answers, candidates int), i int) (answers, candidates int) {
	if st == nil {
		env.mu.RLock()
		defer env.mu.RUnlock()
		return query(i)
	}
	t0 := time.Now()
	env.mu.RLock()
	defer env.mu.RUnlock()
	t1 := time.Now()
	answers, candidates = query(i)
	st.LockWaitNS.Add(t1.Sub(t0).Nanoseconds())
	st.ExecNS.Add(time.Since(t1).Nanoseconds())
	return answers, candidates
}

package store

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
)

// buildClusterForQueries constructs a flushed cluster organization over a
// small series-A dataset.
func buildClusterForQueries(t *testing.T, bufPages int) (*Cluster, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 9,
	})
	env := NewEnv(bufPages)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	env.Buf.Clear()
	env.Disk.ResetCost()
	return c, ds
}

// TestParallelWindowQueriesMatchSerial: the concurrent engine must return
// exactly the aggregate answers of a serial run — concurrency must never
// change what a query sees.
func TestParallelWindowQueriesMatchSerial(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	ws := ds.Windows(0.005, 48, 3)

	var serialAnswers, serialCands int
	var ids []int64
	for _, w := range ws {
		res := c.WindowQuery(w, TechSLM)
		serialAnswers += len(res.IDs)
		serialCands += res.Candidates
		for _, id := range res.IDs {
			ids = append(ids, int64(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, workers := range []int{1, 2, 4, 8} {
		c.Env().Buf.Retain(c.Tree().IsDirPage)
		tr := RunWindowQueriesParallel(c, ws, TechSLM, workers)
		if tr.Answers != serialAnswers || tr.Candidates != serialCands {
			t.Fatalf("workers=%d: answers/cands %d/%d, want %d/%d",
				workers, tr.Answers, tr.Candidates, serialAnswers, serialCands)
		}
		if tr.Queries != len(ws) || tr.Workers > workers {
			t.Fatalf("workers=%d: reported %d queries on %d workers", workers, tr.Queries, tr.Workers)
		}
		if tr.Cost.PagesRead == 0 {
			t.Fatalf("workers=%d: no I/O charged after cooling the object pages", workers)
		}
	}
}

// TestParallelQueriesEmptyBatch: an empty query slice must return a zeroed
// ThroughputResult without spawning the worker pool (the workers > len clamp
// is unreachable for zero queries, so the old code launched the full pool
// and reported it in Workers).
func TestParallelQueriesEmptyBatch(t *testing.T) {
	c, _ := buildClusterForQueries(t, 64)
	before := c.Env().Disk.Cost()
	tr := RunWindowQueriesParallel(c, nil, TechSLM, 8)
	if tr != (ThroughputResult{}) {
		t.Fatalf("empty window batch: got %+v, want zeroed result", tr)
	}
	nr := RunNearestQueriesParallel(c, nil, 10, 8)
	if nr != (ThroughputResult{}) {
		t.Fatalf("empty k-NN batch: got %+v, want zeroed result", nr)
	}
	var st obs.ParallelStages
	goroutines := runtime.NumGoroutine()
	dr := RunQueriesParallel(c, 0, 8, &st, func(int) (answers, candidates int) {
		t.Error("empty batch ran a query")
		return 0, 0
	})
	if dr != (ThroughputResult{}) || st.ExecNS.Load() != 0 || st.LockWaitNS.Load() != 0 {
		t.Fatalf("empty driver call: got %+v, clocks %d/%d", dr, st.ExecNS.Load(), st.LockWaitNS.Load())
	}
	// A batch of one runs on the caller's goroutine: nothing is spawned.
	RunQueriesParallel(c, 1, 8, nil, func(int) (answers, candidates int) {
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("one-query batch runs beside %d spawned goroutines", n-goroutines)
		}
		return 0, 0
	})
	if cost := c.Env().Disk.Cost().Sub(before); cost != (disk.Cost{}) {
		t.Fatalf("empty batches charged I/O: %v", cost)
	}
}

// TestParallelNearestQueriesMatchSerial: the concurrent k-NN engine must
// aggregate exactly the serial answers for every worker count.
func TestParallelNearestQueriesMatchSerial(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	pts := ds.Points(32, 13)
	const k = 10

	var serialAnswers, serialCands int
	for _, pt := range pts {
		res := c.NearestQuery(pt, k)
		serialAnswers += len(res.IDs)
		serialCands += res.Candidates
	}

	for _, workers := range []int{1, 2, 4, 8} {
		c.Env().Buf.Retain(c.Tree().IsDirPage)
		tr := RunNearestQueriesParallel(c, pts, k, workers)
		if tr.Answers != serialAnswers || tr.Candidates != serialCands {
			t.Fatalf("workers=%d: answers/cands %d/%d, want %d/%d",
				workers, tr.Answers, tr.Candidates, serialAnswers, serialCands)
		}
		if tr.Queries != len(pts) || tr.Workers > workers {
			t.Fatalf("workers=%d: reported %d queries on %d workers", workers, tr.Queries, tr.Workers)
		}
		if tr.Cost.PagesRead == 0 {
			t.Fatalf("workers=%d: no I/O charged after cooling the object pages", workers)
		}
	}
}

// TestParallelWindowQueriesDefaultWorkers pins the fallback of an unset
// worker count: workers <= 0 runs on GOMAXPROCS workers.
func TestParallelWindowQueriesDefaultWorkers(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	ws := ds.Windows(0.005, 9, 4)
	tr := RunWindowQueriesParallel(c, ws, TechComplete, 0)
	if tr.Workers != 3 {
		t.Fatalf("workers = %d, want GOMAXPROCS = 3", tr.Workers)
	}
	if tr.QueriesSec <= 0 {
		t.Fatalf("queries/sec = %g", tr.QueriesSec)
	}
}

// TestPanickingQueryReleasesLocks: a query over a damaged page panics — here a
// unit page cut to one byte makes the cluster capture slice past its end, with
// the unit's pages pinned — and net/http recovers such a panic in the
// daemons. The store must come out of it usable: the environment's read lock
// released, so the next mutation does not wait for it forever (and every
// later query behind that mutation), and the capture's pins released, so the
// pages stay evictable. Every wait is bounded, so a regression fails here
// instead of hanging.
func TestPanickingQueryReleasesLocks(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	env := c.Env()
	// An object on a page the unit's in-memory tail does not shadow.
	var victim *object.Object
	var pid disk.PageID
	for _, o := range ds.Objects {
		u := c.units[c.homes[o.ID]]
		if idx := u.objects[u.index[o.ID]].off / disk.PageSize; idx != u.tailIdx {
			victim, pid = o, u.extent.Start+disk.PageID(idx)
			break
		}
	}
	if victim == nil {
		t.Fatal("no object outside a unit's tail page")
	}
	pt := victim.Geom.Segments()[0].A
	orig := slices.Clone(env.Buf.Get(pid))
	env.Buf.Put(pid, []byte{0})

	panicked := func() (msg any) {
		defer func() { msg = recover() }()
		RunQueriesParallel(c, 1, 1, nil, func(int) (answers, candidates int) {
			res := c.PointQuery(pt)
			return len(res.IDs), res.Candidates
		})
		return nil
	}()
	if panicked == nil {
		t.Fatal("the point query over the damaged page did not panic")
	}
	t.Logf("recovered: %v", panicked)

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish within 5 s after a query panicked: the store is still locked", what)
		}
	}
	added := object.New(object.ID(1<<40), geom.NewPolyline([]geom.Point{pt, geom.Pt(pt.X+0.001, pt.Y+0.001)}), 200)
	within("an Insert", func() {
		if err := c.Insert(added, added.Bounds()); err != nil {
			t.Error(err)
		}
	})
	env.Buf.Put(pid, orig)
	var res QueryResult
	within("a window query", func() {
		RunQueriesParallel(c, 1, 1, nil, func(int) (answers, candidates int) {
			res = c.WindowQuery(added.Bounds(), TechComplete)
			return len(res.IDs), res.Candidates
		})
	})
	if !slices.Contains(res.IDs, added.ID) || !slices.Contains(res.IDs, victim.ID) {
		t.Fatalf("window over the inserted object answers %v, want %d and %d among them", res.IDs, added.ID, victim.ID)
	}
	func() {
		defer func() {
			if msg := recover(); msg != nil {
				t.Fatalf("a pin outlived the panicking query: %v", msg)
			}
		}()
		env.Buf.Clear()
	}()
}

package store

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// inParallel runs query(0) … query(n-1) on workers goroutines that take
// indexes in order from one counter. It takes no lock: the queries lock the
// store themselves.
func inParallel(n, workers int, query func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				query(i)
			}
		}()
	}
	wg.Wait()
}

// tallySum adds up the tallies of concurrent queries.
type tallySum struct {
	mu  sync.Mutex
	sum disk.Tally
}

func (s *tallySum) add(t disk.Tally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum.Cost = s.sum.Cost.Add(t.Cost)
	s.sum.Hits += t.Hits
	s.sum.Misses += t.Misses
}

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

// TestParallelWindowQueriesMatchSerial: window queries run concurrently must
// return exactly the aggregate answers of a serial run — concurrency must
// never change what a query sees.
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
		var answers, cands, pagesRead atomic.Int64
		inParallel(len(ws), workers, func(i int) {
			res := c.WindowQuery(ws[i], TechSLM)
			answers.Add(int64(len(res.IDs)))
			cands.Add(int64(res.Candidates))
			pagesRead.Add(res.Cost.PagesRead)
		})
		if int(answers.Load()) != serialAnswers || int(cands.Load()) != serialCands {
			t.Fatalf("workers=%d: answers/cands %d/%d, want %d/%d",
				workers, answers.Load(), cands.Load(), serialAnswers, serialCands)
		}
		if pagesRead.Load() == 0 {
			t.Fatalf("workers=%d: no I/O charged after cooling the object pages", workers)
		}
	}
}

// TestParallelNearestQueriesMatchSerial: k-NN queries run concurrently must
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
		var answers, cands, pagesRead atomic.Int64
		inParallel(len(pts), workers, func(i int) {
			res := c.NearestQuery(pts[i], k)
			answers.Add(int64(len(res.IDs)))
			cands.Add(int64(res.Candidates))
			pagesRead.Add(res.Cost.PagesRead)
		})
		if int(answers.Load()) != serialAnswers || int(cands.Load()) != serialCands {
			t.Fatalf("workers=%d: answers/cands %d/%d, want %d/%d",
				workers, answers.Load(), cands.Load(), serialAnswers, serialCands)
		}
		if pagesRead.Load() == 0 {
			t.Fatalf("workers=%d: no I/O charged after cooling the object pages", workers)
		}
	}
}

// TestTalliesConserve: 8 goroutines run mixed window, point and k-NN queries
// on each organization, whose store is left unflushed behind a small buffer so
// that the queries' misses force write-backs too. Every request is charged to
// exactly one query, so the queries' own tallies must sum to the global
// Disk.Cost and Buf.Stats deltas — all six cost fields, hits and misses.
func TestTalliesConserve(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 91})
	ws := ds.Windows(0.005, 24, 92)
	pts := ds.Points(24, 93)
	var written int64
	for _, kind := range []string{"secondary", "primary", "cluster", "cluster-buddy"} {
		t.Run(kind, func(t *testing.T) {
			env := NewEnv(32)
			var org Organization
			switch kind {
			case "secondary":
				org = NewSecondary(env)
			case "primary":
				org = NewPrimary(env)
			case "cluster":
				org = NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
			case "cluster-buddy":
				org = NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
			}
			for i, o := range ds.Objects {
				if err := org.Insert(o, ds.MBRs[i]); err != nil {
					t.Fatal(err)
				}
			}
			before := countersOf(env)
			var sum tallySum
			inParallel(3*len(ws), 8, func(i int) {
				switch q := i / 3; i % 3 {
				case 0:
					sum.add(org.WindowQuery(ws[q], Technique(q%5)).Tally)
				case 1:
					sum.add(org.PointQuery(pts[q]).Tally)
				default:
					sum.add(org.NearestQuery(pts[q], 1+q%12).Tally)
				}
			})
			want := countersOf(env).since(before)
			if sum.sum != want {
				t.Fatalf("the queries' tallies sum to\n  %+v\nthe global counters moved\n  %+v", sum.sum, want)
			}
			if want.Cost.PagesRead == 0 || want.Hits == 0 {
				t.Fatalf("the queries read nothing: %+v", want)
			}
			written += want.Cost.PagesWritten
		})
	}
	if written == 0 {
		t.Fatal("no query forced a write-back: the write half of the tally was never exercised")
	}
}

// TestPanickingQueryReleasesLocks: a query over a damaged page panics — here a
// unit page cut to one byte makes the cluster capture slice past its end, with
// the unit's pages pinned — and net/http recovers such a panic in the
// daemons. The store must come out of it usable: the query's own read lock
// on the environment released, so the next mutation does not wait for it
// forever (and every later query behind that mutation), and the capture's
// pins released, so the pages stay evictable. Every wait is bounded, so a regression fails here
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
		c.PointQuery(pt)
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
	within("a window query", func() { res = c.WindowQuery(added.Bounds(), TechComplete) })
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

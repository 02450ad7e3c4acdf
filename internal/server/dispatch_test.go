package server_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// boundedWait is how long a test waits for something that should happen at
// once before it fails instead of hanging.
const boundedWait = 10 * time.Second

// gatedOrg is a real organization whose WindowQuery of one window and whose
// Insert of one object block until the test lets them through. The gated
// insert blocks before the underlying Insert takes Env.mu: it holds the
// dispatcher inside a batch — so the test decides, without a clock, what has
// arrived by the time the next batch forms — and nothing a query needs. The
// gated window holds a query inside the store.
type gatedOrg struct {
	store.Organization
	gate    geom.Rect
	gateObj *object.Object
	entered chan struct{} // one token per gated call that reached the store
	release chan struct{} // one token lets one gated call through; closed at cleanup
	windows atomic.Int64  // window queries that reached the store, gated or not
}

// Underlying lets store.Unwrap (snapshots, the WAL's checkpoint) see through.
func (g *gatedOrg) Underlying() store.Organization { return g.Organization }

func (g *gatedOrg) WindowQuery(w geom.Rect, tech store.Technique) store.QueryResult {
	g.windows.Add(1)
	if w == g.gate {
		g.wait()
	}
	return g.Organization.WindowQuery(w, tech)
}

func (g *gatedOrg) Insert(o *object.Object, key geom.Rect) error {
	if o.ID == g.gateObj.ID {
		g.wait()
	}
	return g.Organization.Insert(o, key)
}

func (g *gatedOrg) wait() {
	g.entered <- struct{}{}
	<-g.release
}

// dispatcherFixture is a server over a gated cluster organization, driven
// through its Service methods (no HTTP between the test and the server; the
// client is there for /metrics).
type dispatcherFixture struct {
	t  *testing.T
	ds *datagen.Dataset
	g  *gatedOrg
	s  *server.Server
	c  *server.Client
	ws *wal.Store // withWAL only
	wg sync.WaitGroup
}

// newDispatcherFixture builds the store; withWAL puts a write-ahead log
// between the gated organization and the server. A test that fails while a
// gated call is held lets it through before the server shuts down.
func newDispatcherFixture(t *testing.T, cfg server.Config, withWAL bool) *dispatcherFixture {
	t.Helper()
	f := &dispatcherFixture{t: t, ds: obsDataset()}
	f.g = &gatedOrg{
		Organization: buildOrg(t, "cluster", f.ds),
		gate:         geom.R(0.31, 0.32, 0.33, 0.34),
		gateObj:      testObj(999),
		entered:      make(chan struct{}, 8),
		release:      make(chan struct{}),
	}
	var org store.Organization = f.g
	if withWAL {
		var err error
		if f.ws, err = wal.Create(org, filepath.Join(t.TempDir(), "wal"), wal.Options{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.ws.Close() })
		org = f.ws
	}
	f.s, f.c = startServer(t, org, cfg)
	t.Cleanup(func() { close(f.g.release) })
	return f
}

// queue starts one mutation on its own goroutine and returns once its job
// waits in the dispatcher's queue, so jobs queue in call order. The
// dispatcher must be held.
func (f *dispatcherFixture) queue(call func(rq *server.Request)) *server.Request {
	f.t.Helper()
	return f.queueCtx(context.Background(), call)
}

// queueCtx is queue for a request that carries ctx.
func (f *dispatcherFixture) queueCtx(ctx context.Context, call func(rq *server.Request)) *server.Request {
	f.t.Helper()
	rq := &server.Request{Ctx: ctx}
	queued := f.s.Queued()
	f.spawn(rq, call)
	for deadline := time.Now().Add(boundedWait); f.s.Queued() != queued+1; runtime.Gosched() {
		if time.Now().After(deadline) {
			f.t.Fatalf("job never queued: %d waiting, want %d", f.s.Queued(), queued+1)
		}
	}
	return rq
}

// spawn runs one Service call on its own goroutine; letGo waits for it.
func (f *dispatcherFixture) spawn(rq *server.Request, call func(rq *server.Request)) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		call(rq)
	}()
}

// hold starts a gated call and returns its request record once the call is
// inside the store.
func (f *dispatcherFixture) hold(what string, call func(rq *server.Request)) *server.Request {
	f.t.Helper()
	rq := &server.Request{}
	f.spawn(rq, call)
	select {
	case <-f.g.entered:
	case <-time.After(boundedWait):
		f.t.Fatalf("%s never reached the store", what)
	}
	return rq
}

// holdQuery holds the gated window inside the store.
func (f *dispatcherFixture) holdQuery() *server.Request {
	f.t.Helper()
	return f.hold("the gated window", func(rq *server.Request) { f.s.Window(rq, f.g.gate, store.TechComplete) })
}

// holdDispatcher holds the dispatcher inside the gated insert — a batch of
// one. Until letGo, every mutation queues.
func (f *dispatcherFixture) holdDispatcher() {
	f.t.Helper()
	o := f.g.gateObj
	f.hold("the gated insert", func(rq *server.Request) {
		if err := f.s.Insert(rq, o, o.Bounds()); err != nil {
			f.t.Errorf("gated insert: %v", err)
		}
	})
}

// letGo lets one held call through and waits for every call sent so far.
func (f *dispatcherFixture) letGo() {
	f.g.release <- struct{}{}
	f.wg.Wait()
}

// within fails the test when fn has not returned within the bound — a call
// that should not wait for anything fails here instead of hanging.
func (f *dispatcherFixture) within(what string, fn func()) {
	f.t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(boundedWait):
		f.t.Fatalf("%s did not return within %v", what, boundedWait)
	}
}

// staysOut fails the test when more than n window queries reach the store
// within a short while.
func (f *dispatcherFixture) staysOut(n int64, what string) {
	f.t.Helper()
	time.Sleep(20 * time.Millisecond)
	if got := f.g.windows.Load(); got != n {
		f.t.Fatalf("%s: %d window queries reached the store, want %d", what, got, n)
	}
}

// batches scrapes the batch shape off /metrics.
func (f *dispatcherFixture) batches() (batches, jobs, largest int64) {
	f.t.Helper()
	m, err := f.c.Metrics()
	if err != nil {
		f.t.Fatal(err)
	}
	return m.Batches, m.BatchedJobs, m.MaxBatch
}

// mixedCall is one query of a mixed set, with its own result slot.
type mixedCall struct {
	win  *geom.Rect
	tech store.Technique
	pt   geom.Point
	k    int // 0: point query

	qr  store.QueryResult
	nr  store.NearestResult
	err error
}

// mixedCalls is a set of queries of every kind, every cluster read
// technique and several k.
func mixedCalls(ds *datagen.Dataset) []*mixedCall {
	var calls []*mixedCall
	ws := ds.Windows(0.002, 5, 31)
	pts := ds.Points(4, 32)
	for i := range ws {
		calls = append(calls, &mixedCall{win: &ws[i], tech: store.Technique(i % 5)})
		if i < len(pts) {
			calls = append(calls, &mixedCall{pt: pts[i]}, &mixedCall{pt: pts[i], k: 1 + 4*i})
		}
	}
	return calls
}

// run sends one call through the Service.
func (f *dispatcherFixture) run(rq *server.Request, mc *mixedCall) {
	switch {
	case mc.win != nil:
		mc.qr, mc.err = f.s.Window(rq, *mc.win, mc.tech)
	case mc.k == 0:
		mc.qr, mc.err = f.s.Point(rq, mc.pt)
	default:
		mc.nr, mc.err = f.s.KNN(rq, mc.pt, mc.k)
	}
}

// spawnCalls sends every call on its own goroutine; letGo waits for them.
func (f *dispatcherFixture) spawnCalls(calls []*mixedCall) {
	for _, mc := range calls {
		f.spawn(&server.Request{}, func(rq *server.Request) { f.run(rq, mc) })
	}
}

// checkCalls compares every answer with the same query run in-process on the
// organization, which no mutation may change meanwhile.
func (f *dispatcherFixture) checkCalls(calls []*mixedCall) {
	f.t.Helper()
	org := f.g.Organization
	for i, mc := range calls {
		if mc.err != nil {
			f.t.Fatalf("call %d: %v", i, mc.err)
		}
		switch {
		case mc.win != nil:
			want := org.WindowQuery(*mc.win, mc.tech)
			if !equalU64(sortedIDs(mc.qr.IDs), sortedIDs(want.IDs)) || mc.qr.Candidates != want.Candidates {
				f.t.Fatalf("call %d: window (%v) answers differ from in-process", i, mc.tech)
			}
		case mc.k == 0:
			if want := org.PointQuery(mc.pt); !equalU64(sortedIDs(mc.qr.IDs), sortedIDs(want.IDs)) {
				f.t.Fatalf("call %d: point answers differ from in-process", i)
			}
		default:
			want := org.NearestQuery(mc.pt, mc.k)
			if !reflect.DeepEqual(mc.nr.IDs, want.IDs) {
				f.t.Fatalf("call %d: %d-NN served %v, in-process %v", i, mc.k, mc.nr.IDs, want.IDs)
			}
		}
	}
}

// moved is o's ID with other geometry: an update of o.
func moved(o *object.Object) *object.Object {
	return object.New(o.ID, geom.NewPolyline([]geom.Point{geom.Pt(0.7, 0.7), geom.Pt(0.71, 0.72)}), 300)
}

// TestDispatcherBatchesWhatHasArrived: while the gated insert holds the
// dispatcher, k mutations of every kind arrive; the next batch is exactly
// those k — no more batches, no mutation left for a later one — applied in
// arrival order with one fsync when the store is WAL-attached, and a query
// sent after the k-th acknowledgement observes it.
func TestDispatcherBatchesWhatHasArrived(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			f := newDispatcherFixture(t, server.Config{}, withWAL)
			o1, o2, last := testObj(1), testObj(2), testObj(3)
			victim := f.ds.Objects[0].ID
			type result struct {
				existed bool
				err     error
			}
			results := make([]result, 6)
			muts := []func(rq *server.Request) (bool, error){
				func(rq *server.Request) (bool, error) { return false, f.s.Insert(rq, o1, o1.Bounds()) },
				func(rq *server.Request) (bool, error) { return false, f.s.Insert(rq, o2, o2.Bounds()) },
				func(rq *server.Request) (bool, error) { return f.s.Update(rq, moved(o1), moved(o1).Bounds()) },
				func(rq *server.Request) (bool, error) { return f.s.Delete(rq, o2.ID) },
				func(rq *server.Request) (bool, error) { return f.s.Delete(rq, victim) },
				func(rq *server.Request) (bool, error) { return false, f.s.Insert(rq, last, last.Bounds()) },
			}
			k := int64(len(muts))

			f.holdDispatcher()
			for i, mut := range muts {
				f.queue(func(rq *server.Request) { results[i].existed, results[i].err = mut(rq) })
			}
			var before wal.Stats
			if withWAL {
				before = f.ws.Log().Stats()
			}
			objects := f.g.Stats().Objects
			f.letGo()

			if b, jobs, largest := f.batches(); b != 2 || jobs != k+1 || largest != k {
				t.Fatalf("%d batches carrying %d jobs (largest %d); want 2 carrying %d (largest %d)", b, jobs, largest, k+1, k)
			}
			for i, want := range []bool{false, false, true, true, true, false} {
				if results[i].err != nil || results[i].existed != want {
					t.Fatalf("mutation %d answered existed=%v, %v; want existed=%v", i, results[i].existed, results[i].err, want)
				}
			}
			if withWAL {
				after := f.ws.Log().Stats()
				if after.Syncs-before.Syncs != 1 || after.LastLSN-before.LastLSN != uint64(k) {
					t.Fatalf("%d mutations in one batch: %d fsyncs for %d records; want 1 for %d",
						k, after.Syncs-before.Syncs, after.LastLSN-before.LastLSN, k)
				}
			}
			// The gated insert, o1 and last in; o2 and the victim out.
			if got := f.g.Stats().Objects; got != objects+2 {
				t.Fatalf("%d objects after the batch, want %d", got, objects+2)
			}
			mbr := last.Bounds()
			nr, err := f.s.KNN(&server.Request{}, geom.Pt(mbr.MinX, mbr.MinY), 1) // the polyline's first vertex
			if err != nil || len(nr.IDs) != 1 || nr.IDs[0] != last.ID || nr.Dists[0] != 0 {
				t.Fatalf("query sent after the last acknowledgement did not observe it: %+v, %v", nr, err)
			}
		})
	}
}

// TestDispatcherQueriesDoNotQueue: while the gated insert holds the
// dispatcher, window (every technique), point and k-NN queries answer — they
// do not wait behind a mutation batch — and equal the in-process answers.
func TestDispatcherQueriesDoNotQueue(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	calls := mixedCalls(f.ds)

	f.holdDispatcher()
	f.within("queries sent while the dispatcher applies a batch", func() {
		var wg sync.WaitGroup
		for _, mc := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.run(&server.Request{}, mc)
			}()
		}
		wg.Wait()
	})
	f.checkCalls(calls) // the gated insert has not reached the store yet
	f.letGo()
}

// TestDispatcherQueriesOverlap: two untraced window queries are inside the
// store at once.
func TestDispatcherQueriesOverlap(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	f.holdQuery()
	f.holdQuery()
	f.g.release <- struct{}{}
	f.letGo()
	if b, jobs, largest := f.batches(); b != 2 || jobs != 2 || largest != 1 {
		t.Fatalf("two queries ran as %d batches carrying %d (largest %d); want 2 batches of 1", b, jobs, largest)
	}
}

// executeIO is the I/O attributed to a traced query's execute span.
func executeIO(t *testing.T, tr *obs.Trace) obs.IO {
	t.Helper()
	for _, sp := range tr.Spans() {
		if sp.Stage == "execute" && sp.IO != nil {
			io := *sp.IO
			io.MeasuredNS = 0 // wall clock; the memory backend reads none anyway
			return io
		}
	}
	t.Fatalf("no execute span with I/O: %+v", tr.Spans())
	return obs.IO{}
}

// TestDispatcherTracedQueryOverlaps: a traced query enters the store while an
// untraced one is inside — it tallies its own I/O, so it needs nobody out of
// the way — and the I/O of its execute span equals the same query's on an
// idle server with the same history (the held query has not read anything).
func TestDispatcherTracedQueryOverlaps(t *testing.T) {
	w := obsDataset().Windows(0.002, 1, 35)[0]

	f := newDispatcherFixture(t, server.Config{}, false)
	f.holdQuery()
	busy := &server.Request{Trace: obs.NewTrace()}
	var got store.QueryResult
	var gotErr error
	f.within("a traced query beside a held untraced one", func() {
		got, gotErr = f.s.Window(busy, w, store.TechComplete)
	})
	if n := f.g.windows.Load(); n != 2 {
		t.Fatalf("%d window queries reached the store, want the held one and the traced one", n)
	}
	f.letGo()

	idle := newDispatcherFixture(t, server.Config{}, false)
	alone := &server.Request{Trace: obs.NewTrace()}
	want, err := idle.s.Window(alone, w, store.TechComplete)
	if err != nil || gotErr != nil {
		t.Fatal(err, gotErr)
	}
	if !equalU64(sortedIDs(got.IDs), sortedIDs(want.IDs)) || got.Candidates != want.Candidates {
		t.Fatalf("traced answers differ: %d ids, %d on the idle server", len(got.IDs), len(want.IDs))
	}
	if a, b := executeIO(t, busy.Trace), executeIO(t, alone.Trace); a != b || a.ReadRequests == 0 {
		t.Fatalf("traced query beside another charged %+v, on an idle server %+v", a, b)
	}
}

// TestDispatcherDropsCancelledJobs: a mutation whose context is cancelled
// while it waits behind a held batch is answered with the context's error
// and reaches neither the store nor the log, and the mutation queued after it
// is applied; in serial mode a query cancelled before it gets the lock is
// answered with the context's error and never reaches the store.
func TestDispatcherDropsCancelledJobs(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, true)
	f.holdDispatcher()
	ctx, cancel := context.WithCancel(context.Background())
	var insertErr, liveErr error
	o, live := testObj(7), testObj(8)
	f.queueCtx(ctx, func(rq *server.Request) { insertErr = f.s.Insert(rq, o, o.Bounds()) })
	f.queue(func(rq *server.Request) { liveErr = f.s.Insert(rq, live, live.Bounds()) })
	cancel()
	before, objects := f.ws.Log().Stats(), f.ws.Stats().Objects
	f.letGo()

	if !errors.Is(insertErr, context.Canceled) || liveErr != nil {
		t.Fatalf("cancelled insert answered %v, live one %v; want context.Canceled and nil", insertErr, liveErr)
	}
	if after := f.ws.Log().Stats(); after.Syncs-before.Syncs != 1 || after.LastLSN-before.LastLSN != 1 {
		t.Fatalf("cancelled insert reached the log: %+v -> %+v", before, after)
	}
	if n := f.ws.Stats().Objects; n != objects+2 { // the gated insert and the live one
		t.Fatalf("%d objects after the batch, want %d", n, objects+2)
	}
	if b, jobs, _ := f.batches(); b != 2 || jobs != 3 {
		t.Fatalf("%d batches carrying %d jobs; want 2 carrying 3", b, jobs)
	}

	serial := newDispatcherFixture(t, server.Config{MaxBatch: 1}, false)
	serial.holdQuery()
	ctx, cancel = context.WithCancel(context.Background())
	var windowErr error
	serial.spawn(&server.Request{Ctx: ctx}, func(rq *server.Request) {
		_, windowErr = serial.s.Window(rq, geom.R(0.2, 0.2, 0.5, 0.5), store.TechComplete)
	})
	cancel()
	serial.letGo()
	if !errors.Is(windowErr, context.Canceled) {
		t.Fatalf("cancelled query answered %v, want context.Canceled", windowErr)
	}
	if n := serial.g.windows.Load(); n != 1 {
		t.Fatalf("%d window queries reached the store, want the held one only", n)
	}
}

// TestDispatcherGroupCommitRidesTheBatch: k inserts that arrive while the
// dispatcher is busy form one batch, go through one wal.Store.Apply and share
// one fsync; all k are acknowledged and applied.
func TestDispatcherGroupCommitRidesTheBatch(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, true)
	ws := f.ws

	const k = 9
	f.holdDispatcher()
	errs := make([]error, k)
	for i := range errs {
		o := testObj(uint64(i))
		f.queue(func(rq *server.Request) { errs[i] = f.s.Insert(rq, o, o.Bounds()) })
	}
	before := ws.Log().Stats()
	objects := ws.Stats().Objects
	f.letGo()
	after := ws.Log().Stats()

	if b, jobs, _ := f.batches(); b != 2 || jobs != k+1 {
		t.Fatalf("%d batches carrying %d jobs; want 2 carrying %d", b, jobs, k+1)
	}
	if after.Syncs-before.Syncs != 1 || after.LastLSN-before.LastLSN != k {
		t.Fatalf("%d inserts in one batch: %d fsyncs for %d records; want 1 for %d",
			k, after.Syncs-before.Syncs, after.LastLSN-before.LastLSN, k)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d not acknowledged: %v", i, err)
		}
	}
	if got := ws.Stats().Objects; got != objects+k+1 { // and the gated insert
		t.Fatalf("%d objects after %d acknowledged inserts onto %d", got, k+1, objects)
	}
}

// TestDispatcherTracedMutationsShareCommit: traced mutations keep their
// batch's group commit. One untraced and two traced inserts that arrive while
// the dispatcher is busy share one fsync, and each traced apply span reports
// that fsync and the bytes of all three records.
func TestDispatcherTracedMutationsShareCommit(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, true)
	f.holdDispatcher()
	traces := []*obs.Trace{nil, obs.NewTrace(), obs.NewTrace()}
	errs := make([]error, len(traces))
	rqs := make([]*server.Request, len(traces))
	for i, tr := range traces {
		o := testObj(uint64(i))
		rqs[i] = f.queue(func(rq *server.Request) {
			rq.Trace = tr
			errs[i] = f.s.Insert(rq, o, o.Bounds())
		})
	}
	before := f.ws.Log().Stats()
	f.letGo()
	after := f.ws.Log().Stats()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d not acknowledged: %v", i, err)
		}
	}
	if syncs := after.Syncs - before.Syncs; syncs != 1 || after.LastLSN-before.LastLSN != 3 {
		t.Fatalf("3 inserts in one batch, 2 of them traced: %d fsyncs for %d records; want 1 for 3",
			syncs, after.LastLSN-before.LastLSN)
	}
	for i, tr := range traces[1:] {
		var apply *obs.IO
		for _, sp := range tr.Spans() {
			if sp.Stage == "apply" {
				apply = sp.IO
			}
		}
		if apply == nil || apply.WALSyncs != 1 || apply.WALBytes != after.Bytes-before.Bytes {
			t.Fatalf("traced insert %d: apply span I/O %+v; want 1 fsync of the batch's %d bytes",
				i+1, apply, after.Bytes-before.Bytes)
		}
		if rq := rqs[i+1]; rq.ExecNS <= 0 || rq.ExecNS != rqs[1].ExecNS {
			t.Fatalf("traced insert %d executed for %d ns, the batch's apply %d ns", i+1, rq.ExecNS, rqs[1].ExecNS)
		}
	}
}

// TestDispatcherMaxBatchOneIsSerial: with MaxBatch 1 no second query enters
// the store while one is inside, and queued mutations drain as batches of
// one, one fsync each: serial execution needs no mode of its own.
func TestDispatcherMaxBatchOneIsSerial(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{MaxBatch: 1}, true)
	ws := f.ws
	calls := mixedCalls(f.ds)

	f.holdQuery()
	f.spawnCalls(calls)
	f.staysOut(1, "queries beside a held one in serial mode")
	f.letGo()
	f.checkCalls(calls)

	const inserts = 3
	f.holdDispatcher()
	errs := make([]error, inserts)
	for i := range errs {
		o := testObj(uint64(i))
		f.queue(func(rq *server.Request) { errs[i] = f.s.Insert(rq, o, o.Bounds()) })
	}
	before := ws.Log().Stats().Syncs
	f.letGo()

	k := int64(1 + len(calls) + 1 + inserts)
	if b, jobs, largest := f.batches(); b != k || jobs != k || largest != 1 {
		t.Fatalf("%d batches carrying %d jobs (largest %d); want %d batches of 1", b, jobs, largest, k)
	}
	if got := ws.Log().Stats().Syncs - before; got != inserts {
		t.Fatalf("%d fsyncs for %d serial inserts", got, inserts)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d not acknowledged: %v", i, err)
		}
	}
}

// TestDispatcherLoneClientNeverBatches: a client that waits for each answer
// before it sends the next request finds the dispatcher idle every time — a
// batch of one, picked up at once.
func TestDispatcherLoneClientNeverBatches(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	for i, w := range f.ds.Windows(0.001, 6, 33) {
		if _, err := f.c.Window(w, "SLM"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.c.KNN(w.Center(), 3); err != nil {
			t.Fatal(err)
		}
		if o := testObj(uint64(i)); f.c.Insert(o, o.Bounds()) != nil {
			t.Fatalf("insert %d failed", i)
		}
	}
	if b, jobs, largest := f.batches(); b != 18 || jobs != 18 || largest != 1 {
		t.Fatalf("a sequential client's 18 requests ran as %d batches carrying %d jobs (largest %d)", b, jobs, largest)
	}
}

// TestDispatcherTimesEachJob: a query's ExecNS — the slow-query log's exec_ms
// — is its own execution: a fast window query that runs beside a slow one is
// not charged the slow one's time.
func TestDispatcherTimesEachJob(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	const slowFor = 20 * time.Millisecond

	slow := f.holdQuery()
	fast := &server.Request{}
	f.within("a fast query beside a slow one", func() {
		f.s.Window(fast, f.ds.Windows(0.001, 1, 34)[0], store.TechComplete)
	})
	time.Sleep(slowFor)
	f.letGo()

	if b, jobs, _ := f.batches(); b != 2 || jobs != 2 {
		t.Fatalf("%d batches carrying %d jobs; want 2 carrying 2", b, jobs)
	}
	if slow.ExecNS < slowFor.Nanoseconds() {
		t.Fatalf("slow query executed for %d ns, held for %v", slow.ExecNS, slowFor)
	}
	if fast.ExecNS <= 0 || fast.ExecNS >= slow.ExecNS {
		t.Fatalf("fast query charged %d ns beside a slow query's %d ns", fast.ExecNS, slow.ExecNS)
	}
	if fast.QueueNS < 0 || slow.QueueNS < 0 {
		t.Fatalf("queue waits: fast %d ns, slow %d ns", fast.QueueNS, slow.QueueNS)
	}
}

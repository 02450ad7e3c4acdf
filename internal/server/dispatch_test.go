package server_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// gatedOrg is a real organization whose WindowQuery of one window blocks
// until the test lets it through. A blocked query holds the dispatcher inside
// a batch, so the test decides — without a clock — what has arrived by the
// time the next batch forms.
type gatedOrg struct {
	store.Organization
	gate    geom.Rect
	entered chan struct{} // one token per gated query that reached the store
	release chan struct{} // one token lets one gated query through
	windows atomic.Int64  // window queries that reached the store, gated or not
}

// Underlying lets store.Unwrap (snapshots, the WAL's checkpoint) see through.
func (g *gatedOrg) Underlying() store.Organization { return g.Organization }

func (g *gatedOrg) WindowQuery(w geom.Rect, tech store.Technique) store.QueryResult {
	g.windows.Add(1)
	if w == g.gate {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Organization.WindowQuery(w, tech)
}

// dispatcherFixture is a server over a gated cluster organization, driven
// through its Service methods (no HTTP between the test and the dispatcher;
// the client is there for /metrics).
type dispatcherFixture struct {
	t    *testing.T
	ds   *datagen.Dataset
	g    *gatedOrg
	s    *server.Server
	c    *server.Client
	ws   *wal.Store // withWAL only
	wg   sync.WaitGroup
	gate server.Request // the held query's record
}

// newDispatcherFixture builds the store; withWAL puts a write-ahead log
// between the gated organization and the server.
func newDispatcherFixture(t *testing.T, cfg server.Config, withWAL bool) *dispatcherFixture {
	t.Helper()
	f := &dispatcherFixture{t: t, ds: obsDataset()}
	f.g = &gatedOrg{
		Organization: buildOrg(t, "cluster", f.ds),
		gate:         geom.R(0.31, 0.32, 0.33, 0.34),
		entered:      make(chan struct{}),
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
	return f
}

// queue starts one Service call on its own goroutine and returns once its job
// waits in the dispatcher's queue, so jobs queue in call order.
func (f *dispatcherFixture) queue(call func(rq *server.Request)) *server.Request {
	f.t.Helper()
	return f.queueCtx(context.Background(), call)
}

// queueCtx is queue for a request that carries ctx.
func (f *dispatcherFixture) queueCtx(ctx context.Context, call func(rq *server.Request)) *server.Request {
	f.t.Helper()
	rq := &server.Request{Ctx: ctx}
	queued := f.s.Queued()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		call(rq)
	}()
	for deadline := time.Now().Add(30 * time.Second); f.s.Queued() != queued+1; runtime.Gosched() {
		if time.Now().After(deadline) {
			f.t.Fatalf("job never queued: %d waiting, want %d", f.s.Queued(), queued+1)
		}
	}
	return rq
}

// hold sends the gated window to an idle dispatcher and returns once the
// dispatcher is executing it — a batch of one. Until letGo, every request
// queues.
func (f *dispatcherFixture) hold() {
	f.t.Helper()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.s.Window(&f.gate, f.g.gate, store.TechComplete)
	}()
	<-f.g.entered
}

// letGo lets the held query through and waits for every request sent so far.
func (f *dispatcherFixture) letGo() {
	f.g.release <- struct{}{}
	f.wg.Wait()
}

// batches scrapes the dispatcher's batch shape off /metrics.
func (f *dispatcherFixture) batches() (batches, jobs, largest int64) {
	f.t.Helper()
	m, err := f.c.Metrics()
	if err != nil {
		f.t.Fatal(err)
	}
	return m.Batches, m.BatchedJobs, m.MaxBatch
}

// mixedCalls is a batch's worth of queries of every kind, every cluster read
// technique and several k, each with its own result slot.
type mixedCall struct {
	win  *geom.Rect
	tech store.Technique
	pt   geom.Point
	k    int // 0: point query

	qr  store.QueryResult
	nr  store.NearestResult
	err error
}

func mixedCalls(ds *datagen.Dataset) []*mixedCall {
	var calls []*mixedCall
	ws := ds.Windows(0.002, 5, 31)
	pts := ds.Points(4, 32)
	for i := range ws {
		// Neighbouring jobs differ in technique: the parent's per-technique
		// map groups are gone, the batch runs in this order.
		calls = append(calls, &mixedCall{win: &ws[i], tech: store.Technique(i % 5)})
		if i < len(pts) {
			calls = append(calls, &mixedCall{pt: pts[i]}, &mixedCall{pt: pts[i], k: 1 + 4*i})
		}
	}
	return calls
}

func (f *dispatcherFixture) queueCalls(calls []*mixedCall) {
	f.t.Helper()
	for _, mc := range calls {
		f.queue(func(rq *server.Request) {
			switch {
			case mc.win != nil:
				mc.qr, mc.err = f.s.Window(rq, *mc.win, mc.tech)
			case mc.k == 0:
				mc.qr, mc.err = f.s.Point(rq, mc.pt)
			default:
				mc.nr, mc.err = f.s.KNN(rq, mc.pt, mc.k)
			}
		})
	}
}

// checkCalls compares every answer with the same query run in-process on the
// now quiescent organization.
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
			if len(mc.nr.IDs) != len(want.IDs) {
				f.t.Fatalf("call %d: %d-NN served %d answers, in-process %d", i, mc.k, len(mc.nr.IDs), len(want.IDs))
			}
			for r := range want.IDs { // ordered: rank by rank
				if mc.nr.IDs[r] != want.IDs[r] {
					f.t.Fatalf("call %d: %d-NN rank %d differs from in-process", i, mc.k, r)
				}
			}
		}
	}
}

// TestDispatcherBatchesWhatHasArrived: while one query holds the dispatcher,
// k requests of mixed kind and technique arrive; the next batch is exactly
// those k — no more batches, no request left for a later one — mutations of
// the batch apply before its queries, and every answer equals the in-process
// one.
func TestDispatcherBatchesWhatHasArrived(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	calls := mixedCalls(f.ds)

	f.hold()
	// A point query queued BEFORE the insert it must observe: the batch's
	// mutations go first.
	o := testObj(7)
	mbr := o.Bounds()
	early := &mixedCall{pt: geom.Pt(mbr.MinX, mbr.MinY), k: 1} // the polyline's first vertex
	f.queueCalls([]*mixedCall{early})
	var insertErr error
	f.queue(func(rq *server.Request) { insertErr = f.s.Insert(rq, o, mbr) })
	f.queueCalls(calls)
	k := int64(len(calls) + 2)
	f.letGo()

	if b, jobs, largest := f.batches(); b != 2 || jobs != k+1 || largest != k {
		t.Fatalf("%d batches carrying %d jobs (largest %d); want 2 carrying %d (largest %d)", b, jobs, largest, k+1, k)
	}
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if len(early.nr.IDs) != 1 || early.nr.IDs[0] != o.ID || early.nr.Dists[0] != 0 {
		t.Fatalf("query queued before the batch's insert did not observe it: %+v", early.nr)
	}
	f.checkCalls(append(calls, early))
}

// TestDispatcherDropsCancelledJobs: a request whose context is cancelled
// while it waits behind a held batch is answered with the context's error
// and never executed — a query does not reach the store, an insert neither
// the store nor the log — and the request queued after it is answered.
func TestDispatcherDropsCancelledJobs(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, true)
	win := geom.R(0.2, 0.2, 0.5, 0.5)
	want := f.g.Organization.WindowQuery(win, store.TechComplete)

	f.hold()
	ctx, cancel := context.WithCancel(context.Background())
	var windowErr, insertErr error
	o := testObj(7)
	f.queueCtx(ctx, func(rq *server.Request) { _, windowErr = f.s.Window(rq, win, store.TechComplete) })
	f.queueCtx(ctx, func(rq *server.Request) { insertErr = f.s.Insert(rq, o, o.Bounds()) })
	var got store.QueryResult
	var liveErr error
	f.queue(func(rq *server.Request) { got, liveErr = f.s.Window(rq, win, store.TechComplete) })
	cancel()
	before, objects, windows := f.ws.Log().Stats(), f.ws.Stats().Objects, f.g.windows.Load()
	f.letGo()

	if !errors.Is(windowErr, context.Canceled) || !errors.Is(insertErr, context.Canceled) {
		t.Fatalf("cancelled requests answered %v and %v, want context.Canceled", windowErr, insertErr)
	}
	if n := f.g.windows.Load() - windows; n != 1 {
		t.Fatalf("%d window queries reached the store after the cancel, want the live one only", n)
	}
	if after := f.ws.Log().Stats(); after.Syncs != before.Syncs || after.LastLSN != before.LastLSN {
		t.Fatalf("cancelled insert reached the log: %+v -> %+v", before, after)
	}
	if n := f.ws.Stats().Objects; n != objects {
		t.Fatalf("cancelled insert reached the store: %d objects, want %d", n, objects)
	}
	if liveErr != nil || !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("request queued behind the cancelled ones answered %d IDs (%v), want %d", len(got.IDs), liveErr, len(want.IDs))
	}
	if b, jobs, _ := f.batches(); b != 2 || jobs != 4 {
		t.Fatalf("%d batches carrying %d jobs; want 2 carrying 4", b, jobs)
	}
}

// TestDispatcherGroupCommitRidesTheBatch: k inserts that arrive while the
// dispatcher is busy form one batch, go through one wal.Store.Apply and share
// one fsync; all k are acknowledged and applied.
func TestDispatcherGroupCommitRidesTheBatch(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, true)
	ws := f.ws

	const k = 9
	f.hold()
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
	if got := ws.Stats().Objects; got != objects+k {
		t.Fatalf("%d objects after %d acknowledged inserts onto %d", got, k, objects)
	}
}

// TestDispatcherMaxBatchOneIsSerial: with MaxBatch 1 the same queue drains as
// k batches of one — one request at a time on the dispatcher goroutine, and
// one fsync per mutation: serial execution needs no mode of its own.
func TestDispatcherMaxBatchOneIsSerial(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{MaxBatch: 1}, true)
	ws := f.ws
	calls := mixedCalls(f.ds)

	const inserts = 3
	f.hold()
	errs := make([]error, inserts)
	for i := range errs {
		o := testObj(uint64(i))
		f.queue(func(rq *server.Request) { errs[i] = f.s.Insert(rq, o, o.Bounds()) })
	}
	f.queueCalls(calls)
	k := int64(len(calls) + inserts)
	before := ws.Log().Stats().Syncs
	f.letGo()

	if b, jobs, largest := f.batches(); b != k+1 || jobs != k+1 || largest != 1 {
		t.Fatalf("%d batches carrying %d jobs (largest %d); want %d batches of 1", b, jobs, largest, k+1)
	}
	if got := ws.Log().Stats().Syncs - before; got != inserts {
		t.Fatalf("%d fsyncs for %d serial inserts", got, inserts)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d not acknowledged: %v", i, err)
		}
	}
	f.checkCalls(calls)
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

// TestDispatcherTimesEachJob: a job's ExecNS — the slow-query log's exec_ms —
// is its own execution, not its batch's: a fast window query batched beside a
// slow one of the same technique is not charged the slow one's time.
func TestDispatcherTimesEachJob(t *testing.T) {
	f := newDispatcherFixture(t, server.Config{}, false)
	const slowFor = 20 * time.Millisecond

	f.hold()
	slow := f.queue(func(rq *server.Request) { f.s.Window(rq, f.g.gate, store.TechComplete) })
	fast := f.queue(func(rq *server.Request) { f.s.Window(rq, f.ds.Windows(0.001, 1, 34)[0], store.TechComplete) })
	f.g.release <- struct{}{} // the held query; the next batch is {slow, fast}
	<-f.g.entered             // slow is executing
	time.Sleep(slowFor)       // … slowly (the batch formed long ago)
	f.letGo()

	if b, jobs, _ := f.batches(); b != 2 || jobs != 3 {
		t.Fatalf("%d batches carrying %d jobs; want 2 carrying 3", b, jobs)
	}
	if slow.ExecNS < slowFor.Nanoseconds() {
		t.Fatalf("slow job executed for %d ns, held for %v", slow.ExecNS, slowFor)
	}
	if fast.ExecNS <= 0 || fast.ExecNS >= slow.ExecNS {
		t.Fatalf("fast job charged %d ns beside a slow job's %d ns", fast.ExecNS, slow.ExecNS)
	}
	if fast.QueueNS <= 0 || f.gate.QueueNS < 0 {
		t.Fatalf("queue waits: fast %d ns, held %d ns", fast.QueueNS, f.gate.QueueNS)
	}
}

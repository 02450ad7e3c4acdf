package router

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// Config tunes a Router. The zero value serves with the server's defaults.
type Config struct {
	// MaxInFlight bounds admitted requests; excess requests are answered
	// with 429 immediately (default 256). Shard-side admission still
	// applies per shard underneath.
	MaxInFlight int
	// SlowLogMS is the slow-query log threshold in milliseconds: every
	// routed request at least this slow is kept in the /debug/slowlog ring
	// together with the slowest shard it touched. Zero selects the 250 ms
	// default; negative disables the log.
	SlowLogMS float64
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler tree.
	// Off by default, as on the shard daemons.
	Pprof bool
}

// Router scatters the single-store API across a sharded cluster: it is the
// server.Service — the six operations as scatter, route and merge over one
// typed client per shard — behind the same server.Front a single store is
// served by, plus the cluster's control plane. Create it with New and mount
// Handler on an http.Server, and call Shutdown after the http.Server's. A
// Router has no background goroutines; the shards it fronts are owned by
// their own daemons.
type Router struct {
	pmap   *shard.Map
	shards []*server.Client
	addrs  []string
	front  *server.Front

	// route remembers which shard owns an object ID that was inserted or
	// updated through the router, so deletes and cross-shard updates hit
	// exactly one store. IDs bulk-built shard-side are not in it; deletes
	// of those fall back to a broadcast.
	routeMu sync.RWMutex
	route   map[uint64]int
	// stale holds the shards where a move whose delete half failed may have
	// left an ID's old copy: queries skip it, its next mutation deletes it.
	stale     map[uint64][]int
	staleView atomic.Value // a copy of stale stored on each change: a query reads it lock-free

	shardObs []shardCounters

	// fanout[w] counts scatter operations that touched exactly w shards
	// (index 0 covers degenerate empty scatters). knnWaves counts the
	// wave rounds the wave-ordered k-NN scatter ran.
	fanout     []atomic.Int64
	knnQueries atomic.Int64
	knnWaves   atomic.Int64
}

// shardCounters tracks the router's view of one shard: every typed-client
// exchange (queries, mutations), its latency, and its failures after the
// client's retries gave up.
type shardCounters struct {
	calls, errors atomic.Int64
	hist          obs.Histogram
}

// New builds a router over one typed client per shard of the partition.
// The clients should carry a Retry configuration — the router leans on it
// to absorb transient shard failures. Clients without retry counters get a
// fresh set attached, so /metrics can report retries per shard.
func New(pmap *shard.Map, shards []*server.Client, cfg Config) (*Router, error) {
	if len(shards) != pmap.N() {
		return nil, fmt.Errorf("router: %d clients for %d shards", len(shards), pmap.N())
	}
	addrs := make([]string, len(shards))
	for i, c := range shards {
		addrs[i] = c.Base
		if c.Counters == nil {
			c.Counters = &server.RetryCounters{}
		}
	}
	rt := &Router{
		pmap:     pmap,
		shards:   shards,
		addrs:    addrs,
		route:    make(map[uint64]int),
		stale:    make(map[uint64][]int),
		shardObs: make([]shardCounters, len(shards)),
		fanout:   make([]atomic.Int64, len(shards)+1),
	}
	f := server.NewFront(rt, "sdbrouter", cfg.MaxInFlight, cfg.SlowLogMS, cfg.Pprof)
	// The quiesced snapshot endpoints are missing on purpose: each shard
	// daemon owns its own /save and /load.
	f.Handle(http.MethodPost, "/recluster", rt.handleRecluster)
	f.Handle(http.MethodPost, "/flush", rt.handleFlush)
	f.Handle(http.MethodGet, "/stats", rt.handleStats)
	f.Handle(http.MethodGet, "/metrics", rt.handleMetrics)
	f.Handle(http.MethodGet, "/shards", rt.handleShards)
	f.Ready = rt.ready
	rt.front = f
	return rt, nil
}

// Handler returns the HTTP handler tree — the paths a single server mounts.
func (rt *Router) Handler() http.Handler { return rt.front.Handler() }

// Shutdown turns new work away and waits for the requests in flight: those on
// the connections the router's Front keeps, which http.Server.Shutdown does
// not see, included.
func (rt *Router) Shutdown(ctx context.Context) error { return rt.front.Shutdown(ctx) }

// shardError converts a failed shard exchange into the router's answer. The
// shard's verdicts on the request pass through under their own status — 429
// (after the client's retries gave up), so the caller's backoff keeps
// working, and an insert's 409 and 413; anything else is a 502 — the
// cluster, not the request, is at fault. The message names the failing shard
// both by index and by address (shard=<addr>), so an operator can go
// straight from a client-side error to the broken daemon. A nil err stays nil,
// and an exchange that ended because ctx — the caller's — did is nobody's
// failure: the context's own error goes back, naming no shard.
func (rt *Router) shardError(ctx context.Context, shard int, err error) error {
	if err == nil {
		return nil
	}
	if callerGone(ctx, err) {
		return ctx.Err()
	}
	code := http.StatusBadGateway
	var se *server.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests, http.StatusConflict, http.StatusRequestEntityTooLarge:
			code = se.Code
		}
	}
	return &server.StatusError{Code: code,
		Message: fmt.Sprintf("shard %d (shard=%s): %v", shard, rt.addrs[shard], err)}
}

// callerGone reports whether err is the end of the caller's own context — it
// hung up or ran out of time — rather than a verdict on a shard.
func callerGone(ctx context.Context, err error) bool {
	return ctx != nil && ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// scatter runs fn for every listed shard — i is the shard's position in
// targets — as fan.scatter does a query's exchanges.
func (rt *Router) scatter(ctx context.Context, targets []int, fn func(i, s int) error) error {
	f := rt.getFan(nil)
	defer f.put()
	f.fn = fn
	return f.scatter(ctx, targets)
}

// via returns the per-exchange view of shard s's client: the request's
// context rides to the shard — a caller that went away or whose deadline
// passed aborts the exchange instead of holding a goroutine and an admission
// permit on a hung shard — and so does the identity of its trace.
func (rt *Router) via(rq *server.Request, s int) *server.Client {
	if rq.Trace != nil {
		return rt.shards[s].WithTrace(rq.Ctx, rq.Trace.ID())
	}
	return rt.shards[s].WithContext(rq.Ctx)
}

// shardCall accounts one finished shard exchange of rq in the per-shard
// counters and hands err back. A caller that went away is not the shard's
// error.
func (rt *Router) shardCall(rq *server.Request, s int, start time.Time, err error) error {
	sc := &rt.shardObs[s]
	sc.calls.Add(1)
	sc.hist.Observe(time.Since(start))
	if err != nil && !callerGone(rq.Ctx, err) {
		sc.errors.Add(1)
	}
	return err
}

// fan is the state of one scatter: the request, the query and its
// parameters, the targets, one answer and one error slot per target, what
// the query learns about its shards, and the k-NN wave protocol's bounds,
// flags and merger. Fans are pooled, so a routed query allocates only its
// answer and its shard exchanges.
type fan struct {
	rt *Router
	rq *server.Request
	// fn is a broadcast's exchange; a query's is the client call of kind
	// (binproto.KindWindow, KindPoint or KindKNN) with the parameters below.
	fn     func(i, s int) error
	kind   byte
	win    geom.Rect
	tech   string
	p      geom.Point
	k      int
	stale  map[uint64][]int // the stale copies the query skips
	parent uint32           // the span shard[i] spans hang under

	targets []int
	resps   []server.QueryResponse // window and point answers
	knn     []server.KNNResponse   // the current wave's k-NN answers
	errs    []error
	wg      sync.WaitGroup

	// What the query learns about its shards: the fan-out width and the
	// slowest shard, for the counters and the slow-query log.
	mu           sync.Mutex
	fanout       int
	slowestNS    int64
	slowestShard int

	bounds  []float64 // per-shard k-NN distance lower bounds
	queried []bool
	merger  shard.KNNMerger
}

var fanPool = sync.Pool{New: func() any { return new(fan) }}

func (rt *Router) getFan(rq *server.Request) *fan {
	f := fanPool.Get().(*fan)
	f.rt, f.rq = rt, rq
	return f
}

// put returns f to the pool, dropping every answer, error, request and
// context it holds: a pooled fan must not keep one query's answers alive.
func (f *fan) put() {
	clear(f.resps[:cap(f.resps)])
	clear(f.knn[:cap(f.knn)])
	clear(f.errs[:cap(f.errs)])
	f.rt, f.rq, f.fn, f.stale = nil, nil, nil, nil
	f.fanout, f.slowestNS, f.slowestShard = 0, 0, 0
	if f.k > 4096 { // keep no large merger, as the store keeps no large answer
		f.merger = shard.KNNMerger{}
	}
	fanPool.Put(f)
}

// slots returns s resized to n, reusing its storage: each slot is written
// before it is read.
func slots[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// scatter runs the exchange with every listed shard — i is the shard's
// position in targets — the first on the calling goroutine and each other on
// its own, and returns the lowest-indexed failure (deterministic when several
// shards fail at once), already a shardError under ctx, the context the
// exchanges ran on. Every exchange has ended when it returns.
func (f *fan) scatter(ctx context.Context, targets []int) error {
	if len(targets) == 0 {
		return nil
	}
	f.errs = slots(f.errs, len(targets))
	for i := 1; i < len(targets); i++ {
		f.wg.Add(1)
		go f.run(i, targets[i])
	}
	f.errs[0] = f.exchange(0, targets[0])
	f.wg.Wait()
	for i, err := range f.errs {
		if err != nil {
			return f.rt.shardError(ctx, targets[i], err)
		}
	}
	return nil
}

func (f *fan) run(i, s int) {
	defer f.wg.Done()
	f.errs[i] = f.exchange(i, s)
}

// exchange asks shard s, the i-th target, and keeps a query's answer in
// slot i: a window or point answer without the IDs of stale copies on s.
func (f *fan) exchange(i, s int) error {
	if f.fn != nil {
		return f.fn(i, s)
	}
	start := time.Now()
	c := f.rt.via(f.rq, s)
	var err error
	switch f.kind {
	case binproto.KindKNN:
		f.knn[i], err = c.KNN(f.p, f.k)
		return f.answered(s, start, f.knn[i].Trace, err)
	case binproto.KindWindow:
		f.resps[i], err = c.Window(f.win, f.tech)
	default:
		f.resps[i], err = c.Point(f.p)
	}
	if len(f.stale) != 0 {
		f.resps[i].IDs = slices.DeleteFunc(f.resps[i].IDs, func(id uint64) bool { return slices.Contains(f.stale[id], s) })
	}
	return f.answered(s, start, f.resps[i].Trace, err)
}

// answered accounts one shard's answer to a query exchange that began at
// start. When the request is traced, the shard's sub-trace ti (nil when the
// answer carries none) is grafted under a fresh shard[i] span parented to
// f.parent, its span starts rebased to the request's clock.
func (f *fan) answered(s int, start time.Time, ti *server.TraceInfo, err error) error {
	d := time.Since(start)
	f.rt.shardCall(f.rq, s, start, err)
	f.mu.Lock()
	f.fanout++
	if d.Nanoseconds() > f.slowestNS || f.fanout == 1 {
		f.slowestNS = d.Nanoseconds()
		f.slowestShard = s
	}
	f.mu.Unlock()
	if tr := f.rq.Trace; tr != nil && err == nil {
		id := tr.NewSpanID()
		tr.ObserveAs(id, f.parent, fmt.Sprintf("shard[%d]", s), start, d, int64(s), 0, nil)
		if ti != nil {
			tr.Graft(id, start.Sub(tr.Start()).Seconds()*1000, ti.Spans)
		}
	}
	return err
}

// finish records the fan-out width and names the slowest shard in the
// request record, for the slow-query log.
func (f *fan) finish() {
	f.rt.fanout[min(f.fanout, len(f.rt.fanout)-1)].Add(1)
	if f.fanout > 0 {
		f.rq.Shard = f.rt.addrs[f.slowestShard]
	}
}

func (rt *Router) allShards() []int {
	out := make([]int, rt.pmap.N())
	for i := range out {
		out[i] = i
	}
	return out
}

// getRoute is id's route, if known, and the shards that may hold a stale copy.
func (rt *Router) getRoute(id uint64) (int, bool, []int) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	s, ok := rt.route[id]
	return s, ok, rt.stale[id]
}

// setStale records the shards that may hold a stale copy of id (nil: none).
func (rt *Router) setStale(id uint64, shards []int) {
	rt.routeMu.Lock()
	if rt.stale[id] = shards; shards == nil {
		delete(rt.stale, id)
	}
	rt.staleView.Store(maps.Clone(rt.stale))
	rt.routeMu.Unlock()
}

func (rt *Router) setRoute(id uint64, s int) {
	rt.routeMu.Lock()
	rt.route[id] = s
	rt.routeMu.Unlock()
}

func (rt *Router) delRoute(id uint64) {
	rt.routeMu.Lock()
	delete(rt.route, id)
	if _, ok := rt.stale[id]; ok {
		delete(rt.stale, id)
		rt.staleView.Store(maps.Clone(rt.stale))
	}
	rt.routeMu.Unlock()
}

func (rt *Router) routeSize() int {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	return len(rt.route)
}

// mergeQuery combines per-shard window/point answers: IDs ascending for a
// deterministic wire answer, each once (a cross-shard move holds an ID on two
// shards between its insert and its delete), [] rather than null when there
// are none, candidates summed.
func mergeQuery(resps []server.QueryResponse) store.QueryResult {
	n := 0
	for _, r := range resps {
		n += len(r.IDs)
	}
	out := store.QueryResult{IDs: make([]object.ID, 0, n)}
	for _, r := range resps {
		out.Candidates += r.Candidates
		for _, id := range r.IDs {
			out.IDs = append(out.IDs, object.ID(id))
		}
	}
	slices.Sort(out.IDs)
	out.IDs = slices.Compact(out.IDs)
	return out
}

// The six operations below speak to the shards through the typed client
// methods, so a Binary shard client carries a request end to end over the
// compact encoding whichever codec it arrived in. The trace of a traced
// request rides to every shard (over whichever protocol the client speaks)
// and comes back as one tree: a scatter span whose Count is the fan-out
// width, one shard[i] child per shard touched with that shard's own
// queue/execute sub-trace grafted beneath it, and a merge span.

// Window implements server.Service: the query runs on every shard whose
// region overlaps the window. An unnamed technique stays unnamed on the way
// down, so each shard applies its own default.
func (rt *Router) Window(rq *server.Request, win geom.Rect, tech store.Technique) (store.QueryResult, error) {
	f := rt.getFan(rq)
	f.kind, f.win, f.tech = binproto.KindWindow, win, binproto.TechName(tech)
	return f.query(win)
}

// Point implements server.Service: the query runs on every shard whose
// region holds p.
func (rt *Router) Point(rq *server.Request, p geom.Point) (store.QueryResult, error) {
	f := rt.getFan(rq)
	f.kind, f.p = binproto.KindPoint, p
	return f.query(geom.RectFromPoint(p))
}

// query runs f's window or point query on every shard overlapping target,
// merges, and returns f to the pool.
func (f *fan) query(target geom.Rect) (store.QueryResult, error) {
	defer f.put()
	defer f.finish()
	rt, rq := f.rt, f.rq
	f.targets = rt.pmap.AppendOverlapping(f.targets[:0], target)
	f.resps = slots(f.resps, len(f.targets))
	f.parent = rq.Trace.NewSpanID()
	scatterStart := time.Now()
	f.stale, _ = rt.staleView.Load().(map[uint64][]int)
	if err := f.scatter(rq.Ctx, f.targets); err != nil {
		return store.QueryResult{}, err
	}
	rq.Trace.ObserveAs(f.parent, 0, "scatter", scatterStart, time.Since(scatterStart),
		int64(len(f.targets)), 0, nil)
	mergeStart := time.Now()
	out := mergeQuery(f.resps)
	rq.Trace.Observe("merge", mergeStart, time.Since(mergeStart))
	return out, nil
}

// maxFinite guards the wave Bound against the merger's +Inf "unbounded"
// sentinel, which JSON cannot carry.
const maxFinite = 1e300

// KNN implements server.Service with the wave-ordered scatter: nearest shards
// first, wider waves only while they could still improve the k-th distance.
// Each wave gets its own wave[i] span under the scatter span, carrying the
// wave's width as Count and the global k-th-distance bound after merging the
// wave as Bound.
func (rt *Router) KNN(rq *server.Request, p geom.Point, k int) (store.NearestResult, error) {
	rt.knnQueries.Add(1)
	f := rt.getFan(rq)
	defer f.put()
	defer f.finish()
	f.bounds = rt.pmap.ShardDists(f.bounds[:0], p)
	f.queried = append(f.queried[:0], make([]bool, rt.pmap.N())...)
	f.merger.Reset(k)
	f.stale, _ = rt.staleView.Load().(map[uint64][]int)
	extra := min(len(f.stale), 1<<31-1-k) // room for stale copies; k+extra stays a valid k
	f.kind, f.p, f.k = binproto.KindKNN, p, k+extra
	var out store.NearestResult
	scatterID := rq.Trace.NewSpanID()
	scatterStart := time.Now()
	touched := 0
	for waveNo := 0; ; waveNo++ {
		f.targets = shard.NextWave(f.targets[:0], f.bounds, f.queried, &f.merger)
		if len(f.targets) == 0 {
			break
		}
		rt.knnWaves.Add(1)
		waveStart := time.Now()
		f.parent = rq.Trace.NewSpanID()
		f.knn = slots(f.knn, len(f.targets))
		for _, s := range f.targets {
			f.queried[s] = true
		}
		if err := f.scatter(rq.Ctx, f.targets); err != nil {
			return store.NearestResult{}, err
		}
		for w, resp := range f.knn {
			out.Candidates += resp.Candidates
			for i, id := range resp.IDs {
				if len(f.stale) == 0 || !slices.Contains(f.stale[id], f.targets[w]) {
					f.merger.Add(id, resp.Dists[i])
				}
			}
		}
		if rq.Trace != nil {
			// Bound stays zero until the merger holds k hits — its +Inf
			// "unbounded" sentinel has no JSON encoding.
			bound := 0.0
			if b := f.merger.Bound(); b < maxFinite {
				bound = b
			}
			rq.Trace.ObserveAs(f.parent, scatterID, fmt.Sprintf("wave[%d]", waveNo),
				waveStart, time.Since(waveStart), int64(len(f.targets)), bound, nil)
		}
		touched += len(f.targets)
	}
	rq.Trace.ObserveAs(scatterID, 0, "scatter", scatterStart, time.Since(scatterStart),
		int64(touched), 0, nil)
	mergeStart := time.Now()
	merged := f.merger.Neighbors()
	out.IDs = make([]object.ID, len(merged))
	out.Dists = make([]float64, len(merged))
	for i, nb := range merged {
		out.IDs[i], out.Dists[i] = object.ID(nb.ID), nb.Dist
	}
	rq.Trace.Observe("merge", mergeStart, time.Since(mergeStart))
	return out, nil
}

// insertAt places an object on shard s and remembers the route.
func (rt *Router) insertAt(rq *server.Request, s int, o *object.Object, key geom.Rect) error {
	start := time.Now()
	if err := rt.shardCall(rq, s, start, rt.via(rq, s).Insert(o, key)); err != nil {
		return rt.shardError(rq.Ctx, s, err)
	}
	rt.setRoute(uint64(o.ID), s)
	return nil
}

// deleteAt removes an object from shard s; the error is the shard's own,
// still to be wrapped.
func (rt *Router) deleteAt(rq *server.Request, s int, id object.ID) (bool, error) {
	start := time.Now()
	existed, err := rt.via(rq, s).Delete(id)
	return existed, rt.shardCall(rq, s, start, err)
}

// Insert implements server.Service: the object goes to the shard owning its
// key.
func (rt *Router) Insert(rq *server.Request, o *object.Object, key geom.Rect) error {
	rt.pmap.Observe(key)
	return rt.insertAt(rq, rt.pmap.ShardOfKey(key), o, key)
}

// Update implements server.Service: it replaces an object wherever it lives.
// Shard stores do not upsert, so an update of an object that exists nowhere
// is a no-op. An object that stays on its shard takes one cancellable call.
// A move to another shard inserts the new version at the target first and
// deletes the old copy second, so a target that refuses the object (413) or
// fails leaves the old version answering where it was. The old copy is
// deleted at the cached route's shard or, with no route cached, broadcast to
// every shard but the target, which was asked to update in place first; if no
// shard held it, the object was not alive and the insert is undone. A move
// runs on mv, its request's context with the cancellation taken off, so a
// caller that goes away cannot split it: only a shard failure between the
// insert and the delete can, and that leaves two copies, not none. The
// router records where the old one may be, and deletes it there before the
// ID's next update or with its delete.
func (rt *Router) Update(rq *server.Request, o *object.Object, key geom.Rect) (bool, error) {
	rt.pmap.Observe(key)
	target := rt.pmap.ShardOfKey(key)
	id := uint64(o.ID)
	prev, known, stale := rt.getRoute(id)
	if stale != nil {
		if err := rt.scatter(rq.Ctx, stale, func(_, s int) error {
			_, err := rt.deleteAt(rq, s, o.ID)
			return err
		}); err != nil {
			return false, err
		}
		rt.setStale(id, nil)
	}
	var others []int // the shards the old copy of a move may sit on
	if known && prev != target {
		others = []int{prev}
	} else {
		start := time.Now()
		existed, err := rt.via(rq, target).Update(o, key)
		if err = rt.shardCall(rq, target, start, err); err != nil {
			return false, rt.shardError(rq.Ctx, target, err)
		}
		if existed {
			rt.setRoute(id, target)
			return true, nil
		}
		if known || rt.pmap.N() == 1 { // no other shard can hold it
			rt.delRoute(id)
			return false, nil
		}
		others = slices.DeleteFunc(rt.allShards(), func(s int) bool { return s == target })
	}
	mv := rq
	if rq.Ctx != nil {
		if err := rq.Ctx.Err(); err != nil {
			return false, err
		}
		mv = &server.Request{Ctx: context.WithoutCancel(rq.Ctx), Trace: rq.Trace}
	}
	if err := rt.insertAt(mv, target, o, key); err != nil {
		return false, err
	}
	dels := make([]bool, len(others))
	if err := rt.scatter(mv.Ctx, others, func(i, s int) error {
		var err error
		dels[i], err = rt.deleteAt(mv, s, o.ID)
		return err
	}); err != nil {
		rt.setStale(id, others)
		return false, err
	}
	if slices.Contains(dels, true) {
		return true, nil
	}
	rt.delRoute(id)
	_, err := rt.deleteAt(mv, target, o.ID)
	return false, rt.shardError(mv.Ctx, target, err)
}

// Delete implements server.Service: one call when the route cache knows the
// object's shard (and one per shard a failed move may have left a stale copy
// on), a broadcast when only that can find it (or prove it absent).
func (rt *Router) Delete(rq *server.Request, id object.ID) (bool, error) {
	s, ok, stale := rt.getRoute(uint64(id))
	targets := append([]int{s}, stale...)
	if !ok {
		targets = rt.allShards()
	}
	outs := make([]bool, len(targets))
	if err := rt.scatter(rq.Ctx, targets, func(i, s int) error {
		var err error
		outs[i], err = rt.deleteAt(rq, s, id)
		return err
	}); err != nil {
		return false, err
	}
	rt.delRoute(uint64(id))
	return slices.Contains(outs, true), nil
}

func (rt *Router) handleRecluster(w http.ResponseWriter, r *http.Request) {
	var req server.ReclusterRequest
	if err := server.ReadJSON(r.Body, r.ContentLength, binproto.MaxMessage, &req); err != nil {
		server.Reply(w, nil, &server.StatusError{Code: http.StatusBadRequest, Message: err.Error()})
		return
	}
	outs := make([]server.ReclusterResponse, rt.pmap.N())
	if err := rt.scatter(r.Context(), rt.allShards(), func(_, s int) error {
		var err error
		outs[s], err = rt.shards[s].WithContext(r.Context()).Recluster(req.Policy)
		return err
	}); err != nil {
		server.Reply(w, nil, err)
		return
	}
	var agg server.ReclusterResponse
	for _, o := range outs {
		agg.RepackedUnits += o.RepackedUnits
		agg.Rebuilt = agg.Rebuilt || o.Rebuilt
		if agg.Note == "" {
			agg.Note = o.Note
		}
	}
	server.Reply(w, agg, nil)
}

func (rt *Router) handleFlush(w http.ResponseWriter, r *http.Request) {
	err := rt.scatter(r.Context(), rt.allShards(), func(_, s int) error { return rt.shards[s].WithContext(r.Context()).Flush() })
	server.Reply(w, struct{}{}, err)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := make([]server.StatsResponse, rt.pmap.N())
	if err := rt.scatter(r.Context(), rt.allShards(), func(_, s int) error {
		var err error
		stats[s], err = rt.shards[s].WithContext(r.Context()).Stats()
		return err
	}); err != nil {
		server.Reply(w, nil, err)
		return
	}
	out := StatsResponse{Shards: rt.pmap.N(), PerShard: stats}
	for _, st := range stats {
		out.Objects += st.Objects
		out.Units += st.Units
		out.Bytes += st.ObjectBytes
	}
	server.Reply(w, out, nil)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if server.PromWanted(r) {
		// The exposition view is the router's own families only — a scrape
		// must not fan out to every shard on every pull (each shard exposes
		// its own /metrics); the JSON view keeps the aggregated cluster sums.
		rt.writeProm(w)
		return
	}
	ms := make([]server.Metrics, rt.pmap.N())
	if err := rt.scatter(r.Context(), rt.allShards(), func(_, s int) error {
		var err error
		ms[s], err = rt.shards[s].WithContext(r.Context()).Metrics()
		return err
	}); err != nil {
		server.Reply(w, nil, err)
		return
	}
	var own server.Metrics
	rt.front.Snapshot(&own)
	px, py := rt.pmap.Pad()
	out := MetricsResponse{
		Shards:      rt.pmap.N(),
		Partition:   rt.pmap.String(),
		PadX:        px,
		PadY:        py,
		Uptime:      own.Uptime,
		RoutedIDs:   rt.routeSize(),
		InFlight:    own.InFlight,
		MaxInFlight: own.MaxInFlight,
		KNNQueries:  rt.knnQueries.Load(),
		KNNWaves:    rt.knnWaves.Load(),
		Fanout:      rt.fanoutCounts(),
		SlowLogMS:   own.SlowLogMS,
		SlowLog:     own.SlowLogTotal,
		Router:      own.Endpoints,
		ShardTier:   rt.shardTierMetrics(),
		PerShard:    ms,
	}
	for _, m := range ms {
		out.Objects += m.Storage.Objects
		out.ModelIOSec += m.ModelIOSec
		out.Batches += m.Batches
		out.BatchedJobs += m.BatchedJobs
		out.Rejected += m.Rejected
		out.BufferHits += m.BufferHits
		out.BufferMisses += m.BufferMisses
	}
	server.Reply(w, out, nil)
}

// fanoutCounts snapshots the scatter-width counters (index = shards touched).
func (rt *Router) fanoutCounts() []int64 {
	out := make([]int64, len(rt.fanout))
	for i := range rt.fanout {
		out[i] = rt.fanout[i].Load()
	}
	return out
}

// shardTierMetrics snapshots the router's view of every shard client.
func (rt *Router) shardTierMetrics() []ShardClientMetrics {
	out := make([]ShardClientMetrics, len(rt.shards))
	for i := range rt.shards {
		sc := &rt.shardObs[i]
		hs := sc.hist.Snapshot()
		out[i] = ShardClientMetrics{
			Addr:   rt.addrs[i],
			Calls:  sc.calls.Load(),
			Errors: sc.errors.Load(),
			P50MS:  hs.Quantile(0.50).Seconds() * 1000,
			P95MS:  hs.Quantile(0.95).Seconds() * 1000,
			P99MS:  hs.Quantile(0.99).Seconds() * 1000,
			Retry:  rt.shards[i].Counters.Stats(),
		}
	}
	return out
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	px, py := rt.pmap.Pad()
	out := ShardsResponse{Shards: make([]ShardInfo, rt.pmap.N()), PadX: px, PadY: py}
	for i := range out.Shards {
		lo, hi := rt.pmap.Range(i)
		out.Shards[i] = ShardInfo{Addr: rt.addrs[i], Lo: lo, Hi: hi}
	}
	server.Reply(w, out, nil)
}

// ready is the Front's readiness check: the router can serve queries when
// every shard answers its own /healthz. The error names the lowest-indexed
// unreachable shard.
func (rt *Router) ready(ctx context.Context) error {
	return rt.scatter(ctx, rt.allShards(), func(_, s int) error {
		_, err := rt.shards[s].WithContext(ctx).Raw("/healthz")
		return err
	})
}

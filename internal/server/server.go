package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"spatialcluster"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// Config tunes a Server. The zero value selects concurrent queries and
// group-committed mutations with sensible defaults.
type Config struct {
	// MaxBatch caps how many mutations one dispatcher batch may carry
	// (default 64). A batch is whatever has arrived while the previous one
	// applied. 1 means serial execution: one request at a time, queries
	// included, and no group commit.
	MaxBatch int
	// MaxInFlight bounds admitted requests; excess requests are answered
	// with 429 immediately (default 256).
	MaxInFlight int
	// SnapshotPath, when set, makes Shutdown save the store there after
	// draining and flushing.
	SnapshotPath string
	// OpenConfig is the store configuration POST /load reopens snapshots
	// with (buffer size, backend, path). The organization kind and disk
	// parameters always come from the snapshot itself, and the disk
	// throttle of the previously served store carries over. Note that a
	// file backend here needs a path that is fresh on every load — the
	// previous store still owns its own backing file until the swap — so
	// /load serves snapshots from memory unless the owner arranges
	// otherwise.
	OpenConfig spatialcluster.StoreConfig
	// SlowLogMS is the slow-query log threshold in milliseconds: every
	// request at least this slow is kept in the /debug/slowlog ring. Zero
	// selects the 250 ms default; negative disables the log.
	SlowLogMS float64
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler tree.
	// Off by default: profiling endpoints on a benchmark server distort the
	// numbers they would explain.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// Server serves one storage organization over HTTP. Create it with New,
// mount Handler on an http.Server, and call Shutdown when done. It is the
// Service of its own Front — three queries that run on the caller's
// goroutine and three mutations that enqueue a job with the dispatcher and
// wait — plus the control plane of a single store.
type Server struct {
	cfg   Config
	front *Front

	mu  sync.RWMutex // who runs against org (dispatch.go); /load swaps org under it
	org store.Organization

	jobs       chan *job
	quit       chan struct{}
	dispatchWG sync.WaitGroup
	metrics    batchCounters
}

// New creates a server over a flushed organization and starts its
// dispatcher. The caller keeps ownership of the organization's backend;
// Shutdown flushes but does not close it.
func New(org store.Organization, cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), org: org, quit: make(chan struct{})}
	f := NewFront(s, "sdb", cfg.MaxInFlight, cfg.SlowLogMS, cfg.Pprof)
	s.front = f
	s.jobs = make(chan *job, f.maxInFlight)
	f.Handle(http.MethodPost, "/recluster", s.handleRecluster)
	f.Handle(http.MethodPost, "/flush", s.handleFlush)
	// /save reads unsynchronized bookkeeping maps and /load swaps the
	// organization: both need the store to themselves.
	f.handle(http.MethodPost, "/save", gateExclusive, s.handleSave)
	f.handle(http.MethodPost, "/load", gateExclusive, s.handleLoad)
	f.Handle(http.MethodGet, "/stats", s.handleStats)
	f.Handle(http.MethodGet, "/metrics", s.handleMetrics)
	s.dispatchWG.Add(1)
	go s.dispatch()
	return s
}

// lock takes the organization lock for one execution — alone for a mutation
// batch that carries a traced mutation and in serial mode, shared otherwise —
// and returns the served organization. It is taken once per execution: Go's
// RWMutex deadlocks a reader that locks again while a writer waits.
func (s *Server) lock(traced bool) store.Organization {
	if traced || s.cfg.MaxBatch == 1 {
		s.mu.Lock()
	} else {
		s.mu.RLock()
	}
	return s.org
}

// unlock releases what lock(traced) took.
func (s *Server) unlock(traced bool) {
	if traced || s.cfg.MaxBatch == 1 {
		s.mu.Unlock()
	} else {
		s.mu.RUnlock()
	}
}

// Organization exposes the currently served organization — after a /load
// this differs from the one the server was created with (the daemon closes
// the served store's backend on exit, so it must ask, not remember). An
// execution holding the lock reads s.org instead.
func (s *Server) Organization() store.Organization {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.org
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// query executes run — one window, point or k-NN query against the served
// organization — on the calling goroutine, as a batch of one. The wait for
// the organization lock is its queue wait; a request whose context ended
// meanwhile is answered with the context's error and never reaches the store.
// A traced query's execute span is the query's own tally, which run returns.
func (s *Server) query(rq *Request, run func(org store.Organization) disk.Tally) error {
	start := time.Now()
	org := s.lock(false)
	defer s.unlock(false)
	s.metrics.batch(1)
	wait := time.Since(start)
	rq.QueueNS = wait.Nanoseconds()
	rq.Trace.Observe("queue_wait", start, wait)
	if rq.Ctx != nil && rq.Ctx.Err() != nil {
		return rq.Ctx.Err()
	}
	start = time.Now()
	t := run(org)
	exec := time.Since(start)
	rq.ExecNS = exec.Nanoseconds()
	if rq.Trace != nil {
		rq.Trace.ObserveIO("execute", start, exec, &obs.IO{
			BufferHits:   t.Hits,
			BufferMisses: t.Misses,
			PagesRead:    t.Cost.PagesRead,
			ReadRequests: t.Cost.ReadRequests,
			ModelMS:      t.Cost.TimeMS(org.Env().Params()),
			MeasuredNS:   t.BackendNS,
		})
	}
	return nil
}

// Window implements Service. A window that names no technique reads with
// vector read: the cheapest single-access plan of the paper (sections 5.4.2
// and 6.2), which transfers the requested pages of a unit and buffers only
// those.
func (s *Server) Window(rq *Request, win geom.Rect, tech store.Technique) (res store.QueryResult, err error) {
	if tech == store.TechDefault {
		tech = store.TechSLMVector
	}
	err = s.query(rq, func(org store.Organization) disk.Tally {
		res = org.WindowQuery(win, tech)
		return res.Tally
	})
	return res, err
}

// Point implements Service.
func (s *Server) Point(rq *Request, pt geom.Point) (res store.QueryResult, err error) {
	err = s.query(rq, func(org store.Organization) disk.Tally {
		res = org.PointQuery(pt)
		return res.Tally
	})
	return res, err
}

// KNN implements Service.
func (s *Server) KNN(rq *Request, pt geom.Point, k int) (res store.NearestResult, err error) {
	err = s.query(rq, func(org store.Organization) disk.Tally {
		res = org.NearestQuery(pt, k)
		return res.Tally
	})
	return res, err
}

// Insert implements Service. An error is the store refusing the object — a
// live ID answers 409, an object no cluster unit can hold 413 — or the
// write-ahead log refusing the record; either way nothing was applied.
func (s *Server) Insert(rq *Request, o *object.Object, key geom.Rect) error {
	_, err := s.mutate(rq, wal.Record{Kind: wal.KindInsert, Obj: o, Key: key})
	switch {
	case errors.Is(err, store.ErrDuplicateID):
		return statusErr(http.StatusConflict, "%v", err)
	case errors.Is(err, store.ErrObjectTooLarge):
		return statusErr(http.StatusRequestEntityTooLarge, "%v", err)
	}
	return err
}

// Update implements Service. An object no cluster unit can hold answers 413,
// as on Insert, and leaves the store unchanged.
func (s *Server) Update(rq *Request, o *object.Object, key geom.Rect) (bool, error) {
	existed, err := s.mutate(rq, wal.Record{Kind: wal.KindUpdate, Obj: o, Key: key})
	if errors.Is(err, store.ErrObjectTooLarge) {
		return false, statusErr(http.StatusRequestEntityTooLarge, "%v", err)
	}
	return existed, err
}

// Delete implements Service.
func (s *Server) Delete(rq *Request, id object.ID) (bool, error) {
	return s.mutate(rq, wal.Record{Kind: wal.KindDelete, ID: id})
}

func (s *Server) handleRecluster(w http.ResponseWriter, r *http.Request) {
	var req ReclusterRequest
	if err := ReadJSON(r.Body, r.ContentLength, maxBodyBytes, &req); err != nil {
		Reply(w, nil, badRequest(err))
		return
	}
	pol, err := recluster.ByName(req.Policy)
	if err != nil {
		Reply(w, nil, badRequest(err))
		return
	}
	org := s.Organization()
	if _, isCluster := store.Unwrap(org).(*store.Cluster); !isCluster {
		Reply(w, ReclusterResponse{
			Note: fmt.Sprintf("policy %s ignored: %s has no cluster units", pol.Name(), org.Name()),
		}, nil)
		return
	}
	repacked, rebuilt, err := spatialcluster.Recluster(org, req.Policy)
	if err != nil {
		Reply(w, nil, err)
		return
	}
	org.Flush()
	Reply(w, ReclusterResponse{RepackedUnits: repacked, Rebuilt: rebuilt}, nil)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	s.Organization().Flush()
	Reply(w, struct{}{}, nil)
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if err := ReadJSON(r.Body, r.ContentLength, maxBodyBytes, &req); err != nil {
		Reply(w, nil, badRequest(err))
		return
	}
	if req.Path == "" {
		Reply(w, nil, statusErr(http.StatusBadRequest, "save needs a path"))
		return
	}
	if err := spatialcluster.Save(s.Organization(), req.Path); err != nil {
		Reply(w, nil, err)
		return
	}
	st, err := os.Stat(req.Path)
	if err != nil {
		Reply(w, nil, err)
		return
	}
	Reply(w, SaveResponse{Path: req.Path, Bytes: st.Size()}, nil)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if err := ReadJSON(r.Body, r.ContentLength, maxBodyBytes, &req); err != nil {
		Reply(w, nil, badRequest(err))
		return
	}
	if req.Path == "" {
		Reply(w, nil, statusErr(http.StatusBadRequest, "load needs a path"))
		return
	}
	fresh, err := spatialcluster.Open(req.Path, s.cfg.OpenConfig)
	if err != nil {
		Reply(w, nil, badRequest(err))
		return
	}
	// On a WAL-attached store the wrapper stays: the fresh organization is
	// rebased under it (checkpoint of the new state + retirement of the log
	// history, which no longer describes the served data) and the previous
	// underlying organization is what gets closed. The store is quiesced (we
	// hold every admission permit) and the swap holds the organization lock
	// alone, so it cannot race a request.
	s.mu.Lock()
	old := s.org
	if ws, ok := old.(*wal.Store); ok {
		old = ws.Underlying()
		err = ws.Rebase(fresh)
	} else {
		s.org = fresh
	}
	s.mu.Unlock()
	if err != nil {
		fresh.Env().Close()
		Reply(w, nil, err)
		return
	}
	// The serving environment carries over: the snapshot decides the data,
	// the daemon's flags decide how it is served (wall-clock throttle; the
	// buffer size and backend come from OpenConfig).
	fresh.Env().Disk.SetThrottle(old.Env().Disk.Throttle())
	resp := s.statsResponse(s.Organization())
	// The load has already succeeded at this point — a close failure of the
	// previous store's backend is a warning, not an error.
	if err := old.Env().Close(); err != nil {
		resp.Warning = fmt.Sprintf("loaded, but closing the previous store's backend failed: %v", err)
	}
	Reply(w, resp, nil)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	Reply(w, s.statsResponse(s.Organization()), nil)
}

func (s *Server) statsResponse(org store.Organization) StatsResponse {
	st := org.Stats()
	resp := StatsResponse{
		Org:           org.Name(),
		Objects:       st.Objects,
		OccupiedPages: st.OccupiedPages,
		DirPages:      st.DirPages,
		LeafPages:     st.LeafPages,
		ObjectPages:   st.ObjectPages,
		ObjectBytes:   st.ObjectBytes,
		LiveBytes:     st.LiveBytes,
		DeadBytes:     st.DeadBytes,
		Units:         st.Units,
		ExtentUtil:    st.ExtentUtil,
	}
	if ws, ok := org.(*wal.Store); ok {
		ls := ws.Log().Stats()
		hs := ws.Log().SyncHist().Snapshot()
		resp.WAL = &WALStats{
			Segments:    ls.Segments,
			Bytes:       ls.Bytes,
			LastLSN:     ls.LastLSN,
			Syncs:       ls.Syncs,
			LastFsyncMS: float64(ls.LastSyncNanos) / 1e6,
			FsyncP50MS:  hs.Quantile(0.50).Seconds() * 1000,
			FsyncP95MS:  hs.Quantile(0.95).Seconds() * 1000,
			FsyncP99MS:  hs.Quantile(0.99).Seconds() * 1000,
		}
	}
	return resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	org := s.Organization()
	env := org.Env()
	m := Metrics{
		Org:      org.Name(),
		Storage:  s.statsResponse(org),
		Throttle: env.Disk.Throttle(),
	}
	m.ModelCost = env.Disk.Cost()
	m.ModelIOSec = m.ModelCost.TimeSec(env.Params())
	meas := env.Disk.Measured()
	m.MeasuredIOSec = meas.IOSeconds()
	m.MeasuredReads = meas.Reads
	fillBuffer(&m, env.Buf.Stats())
	s.front.Snapshot(&m)
	s.metrics.snapshot(&m)
	if PromWanted(r) {
		s.writeProm(w, &m)
		return
	}
	Reply(w, m, nil)
}

// Shutdown drains in-flight requests, stops the dispatcher, flushes the
// store and — when Config.SnapshotPath is set — saves a snapshot. The HTTP
// listener must be shut down first (http.Server.Shutdown), so no new
// requests race the drain. Shutdown does not close the store's backend; the
// owner does.
func (s *Server) Shutdown(ctx context.Context) error {
	release, err := s.front.close(ctx)
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if release == nil {
		return nil
	}
	defer release()
	close(s.quit)
	s.dispatchWG.Wait()
	org := s.Organization()
	org.Flush()
	if s.cfg.SnapshotPath != "" {
		if err := spatialcluster.Save(org, s.cfg.SnapshotPath); err != nil {
			return fmt.Errorf("server: shutdown snapshot: %w", err)
		}
	}
	return nil
}

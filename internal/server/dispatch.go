package server

import (
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// The micro-batching dispatcher. Query and mutation handlers do not execute
// requests themselves: they enqueue a job and wait. A single dispatcher
// goroutine takes the first pending job, keeps accumulating whatever arrives
// within Config.BatchWait (up to Config.MaxBatch), and executes the whole
// batch — queries on the store's parallel worker pool (under a burst of B
// concurrent clients a batch runs with min(B, Config.Workers) parallelism),
// mutations applied in batch order.
//
// On a WAL-attached store the mutation half of a batch goes through one
// wal.Store.Apply call, so all its records share one fsync: the group commit
// rides the same micro-batching that amortizes query dispatch. N concurrent
// clients pay ~1 fsync per batch, not per mutation.

// jobKind discriminates the request types a batch can mix.
type jobKind uint8

const (
	jobWindow jobKind = iota
	jobPoint
	jobKNN
	jobInsert
	jobDelete
	jobUpdate
)

// job is one enqueued request plus its result slot. The handler owns the
// request/response fields; the dispatcher fills the result fields and closes
// done.
type job struct {
	kind   jobKind
	window geom.Rect
	tech   store.Technique
	pt     geom.Point
	k      int
	obj    *object.Object // insert, update
	key    geom.Rect      // insert, update
	id     object.ID      // delete

	qr      store.QueryResult
	nr      store.NearestResult
	existed bool  // delete/update answer
	err     error // mutation failure (the WAL refused the record)
	done    chan struct{}

	// Observability. tr is non-nil when the request asked for ?trace=1 — a
	// traced job executes individually on the dispatcher goroutine so the
	// engine counter deltas around it are attributable to it alone. enqueued
	// is stamped by execute; the dispatcher fills queueNS/execNS for every
	// job (the slow-query log wants them even untraced).
	tr       *obs.Trace
	enqueued time.Time
	queueNS  int64
	execNS   int64
}

// dispatch is the dispatcher goroutine. It exits when quit closes; Shutdown
// closes quit only after draining all in-flight requests, so no job can be
// left waiting.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	for {
		var first *job
		select {
		case first = <-s.jobs:
		case <-s.quit:
			return
		}
		batch := make([]*job, 1, s.cfg.MaxBatch)
		batch[0] = first
		if s.cfg.BatchWait > 0 {
			timer := time.NewTimer(s.cfg.BatchWait)
		accumulate:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case j := <-s.jobs:
					batch = append(batch, j)
				case <-timer.C:
					break accumulate
				}
			}
			timer.Stop()
		} else {
			// No accumulation window: take only what has already arrived.
		drain:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case j := <-s.jobs:
					batch = append(batch, j)
				default:
					break drain
				}
			}
		}
		s.runBatch(batch)
	}
}

// runBatch executes one micro-batch: jobs are grouped by kind (window jobs
// further by technique, k-NN jobs carry per-query k), each group runs on the
// store's batched entry point, and every job's done channel is closed once
// its result slot is filled.
func (s *Server) runBatch(batch []*job) {
	org := s.organization()
	s.metrics.batch(len(batch))

	// Every job's queue wait ends now: the dispatcher picked its batch up.
	picked := time.Now()
	for _, j := range batch {
		if !j.enqueued.IsZero() {
			wait := picked.Sub(j.enqueued)
			j.queueNS = wait.Nanoseconds()
			j.tr.Observe("queue_wait", j.enqueued, wait)
		}
	}

	winByTech := make(map[store.Technique][]int)
	var ptIdx, knnIdx, mutIdx, traced []int
	for i, j := range batch {
		switch j.kind {
		case jobWindow, jobPoint, jobKNN:
			// Traced queries leave the grouped path: each runs alone so the
			// engine counter deltas around it belong to it.
			if j.tr != nil {
				traced = append(traced, i)
				continue
			}
			switch j.kind {
			case jobWindow:
				winByTech[j.tech] = append(winByTech[j.tech], i)
			case jobPoint:
				ptIdx = append(ptIdx, i)
			case jobKNN:
				knnIdx = append(knnIdx, i)
			}
		case jobInsert, jobDelete, jobUpdate:
			mutIdx = append(mutIdx, i)
		}
	}

	// Mutations first, in batch (≈ arrival) order, so the queries of the
	// same batch observe them — one consistent serialization per batch.
	if len(mutIdx) > 0 {
		s.applyMutations(org, batch, mutIdx)
	}

	for _, i := range traced {
		s.runTracedQuery(org, batch[i])
	}

	// groupExec assigns a group's wall time to each member: for the
	// slow-query log, a grouped job "executed" for as long as its group did.
	groupExec := func(idxs []int, start time.Time) {
		ns := time.Since(start).Nanoseconds()
		for _, i := range idxs {
			batch[i].execNS = ns
		}
	}

	for tech, idxs := range winByTech {
		ws := make([]geom.Rect, len(idxs))
		for bi, i := range idxs {
			ws[bi] = batch[i].window
		}
		start := time.Now()
		for bi, r := range store.RunWindowQueryBatch(org, ws, tech, s.cfg.Workers) {
			batch[idxs[bi]].qr = r
		}
		groupExec(idxs, start)
	}
	if len(ptIdx) > 0 {
		pts := make([]geom.Point, len(ptIdx))
		for bi, i := range ptIdx {
			pts[bi] = batch[i].pt
		}
		start := time.Now()
		for bi, r := range store.RunPointQueryBatch(org, pts, s.cfg.Workers) {
			batch[ptIdx[bi]].qr = r
		}
		groupExec(ptIdx, start)
	}
	if len(knnIdx) > 0 {
		pts := make([]geom.Point, len(knnIdx))
		ks := make([]int, len(knnIdx))
		for bi, i := range knnIdx {
			pts[bi], ks[bi] = batch[i].pt, batch[i].k
		}
		start := time.Now()
		for bi, r := range store.RunNearestQueryBatch(org, pts, ks, s.cfg.Workers) {
			batch[knnIdx[bi]].nr = r
		}
		groupExec(knnIdx, start)
	}

	for _, j := range batch {
		close(j.done)
	}
}

// ioSnap is a snapshot of the engine's resource counters, taken around a
// traced execution. Batches run one at a time on the dispatcher goroutine, so
// the delta of two snapshots around an individually-run job is attributable
// to that job alone.
type ioSnap struct {
	cost   disk.Cost
	meas   disk.Measured
	buf    buffer.Stats
	wal    wal.Stats
	hasWAL bool
}

func takeIOSnap(org store.Organization) ioSnap {
	env := org.Env()
	snap := ioSnap{cost: env.Disk.Cost(), meas: env.Disk.Measured(), buf: env.Buf.Stats()}
	if ws, ok := org.(*wal.Store); ok {
		snap.wal = ws.Log().Stats()
		snap.hasWAL = true
	}
	return snap
}

// delta computes the obs.IO consumed since the snapshot was taken.
func (before ioSnap) delta(org store.Organization) *obs.IO {
	env := org.Env()
	after := takeIOSnap(org)
	c := after.cost.Sub(before.cost)
	m := after.meas.Sub(before.meas)
	io := &obs.IO{
		BufferHits:   after.buf.Hits - before.buf.Hits,
		BufferMisses: after.buf.Misses - before.buf.Misses,
		PagesRead:    c.PagesRead,
		ReadRequests: c.ReadRequests,
		ModelMS:      c.TimeMS(env.Params()),
		MeasuredNS:   m.ReadNS + m.WriteNS + m.SyncNS,
	}
	if before.hasWAL {
		io.WALBytes = after.wal.Bytes - before.wal.Bytes
		io.WALSyncs = after.wal.Syncs - before.wal.Syncs
		if io.WALSyncs > 0 {
			// The job ran alone, so the log's last sync was its sync.
			io.WALSyncNS = after.wal.LastSyncNanos
		}
	}
	return io
}

// runTracedQuery executes one traced query as its own 1-element batch call
// (the same store entry point the grouped path uses, so answers are
// identical) with counter snapshots around it.
func (s *Server) runTracedQuery(org store.Organization, j *job) {
	start := time.Now()
	before := takeIOSnap(org)
	switch j.kind {
	case jobWindow:
		j.qr = store.RunWindowQueryBatch(org, []geom.Rect{j.window}, j.tech, s.cfg.Workers)[0]
	case jobPoint:
		j.qr = store.RunPointQueryBatch(org, []geom.Point{j.pt}, s.cfg.Workers)[0]
	case jobKNN:
		j.nr = store.RunNearestQueryBatch(org, []geom.Point{j.pt}, []int{j.k}, s.cfg.Workers)[0]
	}
	d := time.Since(start)
	j.execNS = d.Nanoseconds()
	j.tr.ObserveIO("execute", start, d, before.delta(org))
}

// applyMutations applies the mutation jobs of one batch in order. Traced
// mutations break the group: each applies alone (its own WAL append and
// fsync) so the trace's WAL attribution is its own, at the cost of losing the
// group commit for that batch — the trace observes a worst-case commit, which
// is what a latency investigation wants to see.
func (s *Server) applyMutations(org store.Organization, batch []*job, mutIdx []int) {
	var pending []int
	flush := func() {
		if len(pending) > 0 {
			s.applyMutationGroup(org, batch, pending)
			pending = pending[:0]
		}
	}
	for _, i := range mutIdx {
		j := batch[i]
		if j.tr == nil {
			pending = append(pending, i)
			continue
		}
		flush()
		start := time.Now()
		before := takeIOSnap(org)
		s.applyMutationGroup(org, batch, []int{i})
		d := time.Since(start)
		j.execNS = d.Nanoseconds()
		j.tr.ObserveIO("apply", start, d, before.delta(org))
	}
	flush()
}

// applyMutationGroup applies one run of mutation jobs in order. On a
// WAL-attached store the whole group goes through one Apply call — one log
// append batch, one fsync (the group commit). A WAL failure fails every
// mutation of the group: none were acknowledged, none applied.
func (s *Server) applyMutationGroup(org store.Organization, batch []*job, mutIdx []int) {
	if ws, ok := org.(*wal.Store); ok {
		muts := make([]wal.Mutation, len(mutIdx))
		for bi, i := range mutIdx {
			j := batch[i]
			switch j.kind {
			case jobInsert:
				muts[bi] = wal.Mutation{Kind: wal.KindInsert, Obj: j.obj, Key: j.key}
			case jobDelete:
				muts[bi] = wal.Mutation{Kind: wal.KindDelete, ID: j.id}
			case jobUpdate:
				muts[bi] = wal.Mutation{Kind: wal.KindUpdate, Obj: j.obj, Key: j.key}
			}
		}
		existed, err := ws.Apply(muts)
		for bi, i := range mutIdx {
			if err != nil {
				batch[i].err = err
				continue
			}
			batch[i].existed = existed[bi]
		}
		return
	}
	for _, i := range mutIdx {
		j := batch[i]
		switch j.kind {
		case jobInsert:
			org.Insert(j.obj, j.key)
		case jobDelete:
			j.existed = org.Delete(j.id)
		case jobUpdate:
			j.existed = org.Update(j.obj, j.key)
		}
	}
}

// execute runs one query job: through the dispatcher in batched mode, or
// serialized behind the exclusive query mutex otherwise. Serial mode is the
// pre-dispatcher baseline — the only safe way to serve the store's
// single-threaded query API under concurrent mutations is one query at a
// time — and exists so the serving benchmark can measure what micro-batching
// buys (ServerBench's wall_batch_gain).
func (s *Server) execute(j *job) {
	j.enqueued = time.Now()
	if s.cfg.Serial {
		// Serial mode's queue is the mutex: the wait for it is the queue wait.
		s.serialMu.Lock()
		defer s.serialMu.Unlock()
		s.runBatch([]*job{j})
		<-j.done
		return
	}
	s.jobs <- j
	<-j.done
}

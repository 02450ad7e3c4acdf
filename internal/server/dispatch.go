package server

import (
	"context"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// The micro-batching dispatcher. Query and mutation handlers do not execute
// requests themselves: they enqueue a job and wait. A single dispatcher
// goroutine takes the first pending job, drains whatever else has already
// arrived (up to Config.MaxBatch) and executes the whole batch — mutations
// applied in batch order, then the queries through the store's one parallel
// driver. It never waits for a batch to fill: batches form from the work that
// arrives while the previous batch executes. An idle server runs a lone
// request as a batch of one with no delay; under a burst of B concurrent
// clients a batch runs with min(B, Config.Workers) parallelism. With
// Config.MaxBatch 1 this is serial execution, one request at a time.
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
	jobMutate
)

// job is one enqueued request plus its result slot. The handler owns the
// request/response fields; the dispatcher fills the result fields and closes
// done.
type job struct {
	kind   jobKind
	ctx    context.Context // the request's; nil never expires
	window geom.Rect
	tech   store.Technique
	pt     geom.Point
	k      int
	rec    wal.Record // jobMutate: the insert, update or delete as the log holds it

	qr      store.QueryResult
	nr      store.NearestResult
	existed bool // delete/update answer
	// err is the request's context error when it was done before the batch
	// was picked up, else a mutation's failure: the WAL refused the record,
	// or the store the object.
	err  error
	done chan struct{}

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
// left waiting. The batch slice and its split into mutations and untraced
// queries belong to this goroutine and are reused from batch to batch.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	batch := make([]*job, 0, s.cfg.MaxBatch)
	muts := make([]*job, 0, s.cfg.MaxBatch)
	queries := make([]*job, 0, s.cfg.MaxBatch)
	for {
		select {
		case first := <-s.jobs:
			batch = append(batch[:0], first)
		case <-s.quit:
			return
		}
		// Take only what has already arrived.
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case j := <-s.jobs:
				batch = append(batch, j)
			default:
				break drain
			}
		}
		s.runBatch(batch, muts, queries)
	}
}

// runBatch executes one micro-batch. muts and queries are empty scratch with
// room for the whole batch. Every job's done channel is closed once the
// batch has run and its result slot is filled.
func (s *Server) runBatch(batch, muts, queries []*job) {
	org := s.organization()
	s.metrics.batch(len(batch))

	// Every job's queue wait ends now: the dispatcher picked its batch up. A
	// job whose caller has gone away or run out of time meanwhile is answered
	// with its context's error and reaches neither the store nor the log. A
	// mutation dropped so was never acknowledged, which loses nothing when it
	// is the caller's whole change; a caller for whom it is one step of
	// several (the router re-creating an object it has just deleted from
	// another shard) must send it on a context that outlives its own caller.
	picked := time.Now()
	for _, j := range batch {
		wait := picked.Sub(j.enqueued)
		j.queueNS = wait.Nanoseconds()
		j.tr.Observe("queue_wait", j.enqueued, wait)
		switch {
		case j.ctx != nil && j.ctx.Err() != nil:
			j.err = j.ctx.Err()
		case j.kind == jobMutate:
			muts = append(muts, j)
		case j.tr == nil:
			queries = append(queries, j)
		}
	}

	// Mutations first, in batch (≈ arrival) order, so the queries of the
	// same batch observe them — one consistent serialization per batch.
	s.applyMutations(org, muts)

	// Traced queries leave the grouped path: each runs alone so the engine
	// counter deltas around it belong to it.
	for _, j := range batch {
		if j.tr != nil && j.kind != jobMutate && j.err == nil {
			s.runTracedQuery(org, j)
		}
	}

	// All other queries — window, point and k-NN alike — run in one driver
	// call, handed out in batch order.
	store.RunQueriesParallel(org, len(queries), s.cfg.Workers, nil, func(i int) (answers, candidates int) {
		return queries[i].runQuery(org)
	})

	for _, j := range batch {
		close(j.done)
	}
	// Finished jobs hold their answers: the reused slices must not keep them
	// reachable.
	clear(batch)
	clear(muts)
	clear(queries)
}

// runQuery executes one query job into its own result slot and times it:
// execNS is this job's execution alone, whatever else its batch carried. The
// caller (the store's driver) holds the environment's read lock.
func (j *job) runQuery(org store.Organization) (answers, candidates int) {
	start := time.Now()
	switch j.kind {
	case jobWindow:
		j.qr = org.WindowQuery(j.window, j.tech)
	case jobPoint:
		j.qr = org.PointQuery(j.pt)
	case jobKNN:
		j.nr = org.NearestQuery(j.pt, j.k)
	}
	j.execNS = time.Since(start).Nanoseconds()
	// Only one of the two result slots is filled.
	return len(j.qr.IDs) + len(j.nr.IDs), j.qr.Candidates + j.nr.Candidates
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

// runTracedQuery executes one traced query alone through the driver and
// per-job function of the grouped path (so answers are identical) with
// counter snapshots around it.
func (s *Server) runTracedQuery(org store.Organization, j *job) {
	start := time.Now()
	before := takeIOSnap(org)
	store.RunQueriesParallel(org, 1, 1, nil, func(int) (answers, candidates int) {
		return j.runQuery(org)
	})
	j.tr.ObserveIO("execute", start, time.Since(start), before.delta(org))
}

// applyMutations applies the mutation jobs of one batch in order: each run
// of untraced mutations as one group. Traced mutations break the group: each
// applies alone (its own WAL append and fsync) so the trace's WAL attribution
// is its own, at the cost of losing the group commit for that batch — the
// trace observes a worst-case commit, which is what a latency investigation
// wants to see.
func (s *Server) applyMutations(org store.Organization, muts []*job) {
	lo := 0
	for i, j := range muts {
		if j.tr == nil {
			continue
		}
		s.applyMutationGroup(org, muts[lo:i])
		start := time.Now()
		before := takeIOSnap(org)
		s.applyMutationGroup(org, muts[i:i+1])
		d := time.Since(start)
		j.execNS = d.Nanoseconds()
		j.tr.ObserveIO("apply", start, d, before.delta(org))
		lo = i + 1
	}
	s.applyMutationGroup(org, muts[lo:])
}

// applyMutationGroup applies one run of mutation jobs in order. On a
// WAL-attached store the whole group goes through one Apply call — one log
// append batch, one fsync (the group commit). A WAL failure fails every
// mutation of the group: none were acknowledged, none applied. An insert the
// store refuses fails alone.
func (s *Server) applyMutationGroup(org store.Organization, group []*job) {
	if len(group) == 0 {
		return
	}
	if ws, ok := org.(*wal.Store); ok {
		recs := make([]wal.Record, len(group))
		for i, j := range group {
			recs[i] = j.rec
		}
		existed, refused, err := ws.Apply(recs)
		for i, j := range group {
			switch {
			case err != nil:
				j.err = err
			case refused != nil && refused[i] != nil:
				j.err = refused[i]
			default:
				j.existed = existed[i]
			}
		}
		return
	}
	for _, j := range group {
		j.existed, j.err = wal.ApplyRecord(org, &j.rec)
	}
}

// execute hands one job to the dispatcher and waits for its batch to finish.
func (s *Server) execute(j *job) {
	j.enqueued = time.Now()
	s.jobs <- j
	<-j.done
}

package server

import (
	"context"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// The mutation dispatcher. Queries do not come here: a window, point or k-NN
// query executes on its request's goroutine (Server.query), so any number run
// at once. Insert, update and delete handlers enqueue a job and wait. A single
// dispatcher goroutine takes the first pending job, drains whatever else has
// already arrived (up to Config.MaxBatch) and applies the batch in order. It
// never waits for a batch to fill: batches form from the mutations that
// arrive while the previous batch applies. An idle server applies a lone
// mutation as a batch of one with no delay. On a WAL-attached store a batch's
// mutations, traced or not, go through one wal.Store.Apply call, so all its
// records share one fsync: N concurrent writers pay ~1 fsync per batch, not
// per mutation.
//
// Server.mu decides who runs against the organization, taken once per
// execution. Queries, traced or not (a query tallies its own I/O), and the
// dispatcher's untraced batches share it; a batch that carries a traced
// mutation, every execution when Config.MaxBatch is 1, and /load's swap hold
// it alone — so the engine counter deltas around a traced batch are its own,
// and MaxBatch 1 is serial execution, one request at a time. The wait for it
// is part of a request's queue wait. A mutation is applied before it is acknowledged, and
// Env.mu orders every apply against every query's read, so a query observes
// every mutation acknowledged before it arrived.

// job is one enqueued mutation plus its result slot. The handler owns the
// request fields; the dispatcher fills the result fields and closes done.
type job struct {
	ctx context.Context // the request's; nil never expires
	rec wal.Record      // the insert, update or delete as the log holds it

	existed bool // delete/update answer
	// err is the request's context error when it was done before the batch
	// was picked up, else the mutation's failure: the WAL refused the record,
	// or the store the object.
	err  error
	done chan struct{}

	// Observability. tr is non-nil when the request asked for ?trace=1 — a
	// batch carrying a traced job applies alone, so the engine counter deltas
	// around it are the batch's. enqueued is stamped by Server.mutate; the
	// dispatcher fills queueNS for every job (the slow-query log wants it
	// even untraced) and execNS, the batch's apply time, for a traced one.
	tr       *obs.Trace
	enqueued time.Time
	queueNS  int64
	execNS   int64
}

// dispatch is the dispatcher goroutine. It exits when quit closes; Shutdown
// closes quit only after draining all in-flight requests, so no job can be
// left waiting. The batch slice and its live subset belong to this goroutine
// and are reused from batch to batch.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	batch := make([]*job, 0, s.cfg.MaxBatch)
	live := make([]*job, 0, s.cfg.MaxBatch)
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
		s.runBatch(batch, live)
	}
}

// runBatch applies one batch under the organization lock. live is empty
// scratch with room for the whole batch. Every job's done channel is closed
// once the batch has run and its result slot is filled.
func (s *Server) runBatch(batch, live []*job) {
	s.metrics.batch(len(batch))
	traced := false
	for _, j := range batch {
		traced = traced || j.tr != nil
	}
	org := s.lock(traced)

	// Every job's queue wait ends now: the dispatcher picked its batch up and
	// holds the lock. A job whose caller has gone away or run out of time
	// meanwhile is answered with its context's error and reaches neither the
	// store nor the log. A mutation dropped so was never acknowledged, which
	// loses nothing when it is the caller's whole change; a caller for whom
	// it is one step of several (the router re-creating an object it has
	// just deleted from another shard) must send it on a context that
	// outlives its own caller.
	picked := time.Now()
	for _, j := range batch {
		wait := picked.Sub(j.enqueued)
		j.queueNS = wait.Nanoseconds()
		j.tr.Observe("queue_wait", j.enqueued, wait)
		if j.ctx != nil && j.ctx.Err() != nil {
			j.err = j.ctx.Err()
		} else {
			live = append(live, j)
		}
	}
	if traced {
		// Each traced job's apply span is its batch's commit.
		start, before := time.Now(), takeIOSnap(org)
		s.applyMutationGroup(org, live)
		d := time.Since(start)
		io := before.delta(takeIOSnap(org), org.Env().Params())
		for _, j := range live {
			if j.tr != nil {
				own := *io
				j.execNS = d.Nanoseconds()
				j.tr.ObserveIO("apply", start, d, &own)
			}
		}
	} else {
		s.applyMutationGroup(org, live)
	}
	s.unlock(traced)

	for _, j := range batch {
		close(j.done)
	}
	// Finished jobs hold their answers: the reused slices must not keep them
	// reachable.
	clear(batch)
	clear(live)
}

// ioSnap is a snapshot of the engine's resource counters, taken around a
// batch that carries a traced mutation. Such a batch holds the organization
// lock alone, so the delta of two snapshots around it is attributable to it
// alone.
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

// delta computes the obs.IO consumed between the two snapshots.
func (before ioSnap) delta(after ioSnap, p disk.Params) *obs.IO {
	c := after.cost.Sub(before.cost)
	m := after.meas.Sub(before.meas)
	io := &obs.IO{
		BufferHits:   after.buf.Hits - before.buf.Hits,
		BufferMisses: after.buf.Misses - before.buf.Misses,
		PagesRead:    c.PagesRead,
		ReadRequests: c.ReadRequests,
		ModelMS:      c.TimeMS(p),
		MeasuredNS:   m.ReadNS + m.WriteNS,
	}
	if before.hasWAL {
		io.WALBytes = after.wal.Bytes - before.wal.Bytes
		io.WALSyncs = after.wal.Syncs - before.wal.Syncs
		if io.WALSyncs > 0 {
			// The execution held the lock alone, so the log's last sync was
			// its sync.
			io.WALSyncNS = after.wal.LastSyncNanos
		}
	}
	return io
}

// applyMutationGroup applies a batch's live mutation jobs in order. On a
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

// mutate hands one mutation to the dispatcher, waits for its batch to finish
// and hands its dispatcher attribution to the request record, for the
// slow-query log.
func (s *Server) mutate(rq *Request, rec wal.Record) (existed bool, err error) {
	j := &job{ctx: rq.Ctx, rec: rec, tr: rq.Trace, done: make(chan struct{}), enqueued: time.Now()}
	s.jobs <- j
	<-j.done
	rq.QueueNS, rq.ExecNS = j.queueNS, j.execNS
	return j.existed, j.err
}

package wal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/rtree"
	"spatialcluster/internal/store"
)

// Store wraps an organization with write-ahead logging: it implements
// store.Organization, delegates every query unchanged, and routes every
// mutation through the log — append (and fsync, per Options.SyncEvery)
// first, apply second — so an acknowledged mutation is always recoverable.
//
// The interface's mutating methods cannot report a log failure (Insert's
// error is the store's refusal of the object), so they panic when the log
// cannot accept the record (the same contract as Env.sync: a store that
// cannot make its durability promise must not limp on). Callers that want
// the error — the server's dispatcher, the fault-injection tests — use
// Apply, which also gives a whole batch one fsync (group commit).
type Store struct {
	mu  sync.Mutex // serializes mutations: log order == apply order
	org atomic.Pointer[store.Organization]
	log *Log // its dir and opts are the store's

	ckptWG      sync.WaitGroup
	ckptRunning atomic.Bool
	ckptErrMu   sync.Mutex
	ckptErr     error
}

// Underlying returns the wrapped organization. store.Unwrap uses it; going
// around the wrapper to mutate the underlying store directly forfeits
// durability.
func (s *Store) Underlying() store.Organization { return *s.org.Load() }

// Log exposes the write-ahead log (for stats and tests).
func (s *Store) Log() *Log { return s.log }

// Apply logs recs — insert, delete and update records — as one commit, every
// record sharing one fsync, and then applies them in order, reporting for
// each delete/update whether the object existed and for each insert and
// update the store's refusal, if any (refused is nil when every record was
// taken). A refused record stays in the log: replay meets the same store
// state, refuses it again and moves on. On error nothing is applied,
// nothing is acknowledged, and the log stays poisoned: later Apply calls
// fail too, so the acknowledged prefix is exactly what recovery replays. The log assigns
// the records' LSNs in place.
func (s *Store) Apply(recs []Record) (existed []bool, refused []error, err error) {
	if len(recs) == 0 {
		return nil, nil, nil
	}
	for i := range recs {
		if k := recs[i].Kind; k != KindInsert && k != KindDelete && k != KindUpdate {
			return nil, nil, fmt.Errorf("wal: cannot apply mutation of kind %v", k)
		}
	}
	s.mu.Lock()
	if err := s.log.Append(recs...); err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	org := s.Underlying()
	existed = make([]bool, len(recs))
	for i := range recs {
		var refusal error
		if existed[i], refusal = ApplyRecord(org, &recs[i]); refusal != nil {
			if refused == nil {
				refused = make([]error, len(recs))
			}
			refused[i] = refusal
		}
	}
	s.mu.Unlock()
	s.maybeCheckpoint()
	return existed, refused, nil
}

// Recluster logs and runs one maintenance pass of the named policy
// (resolved through recluster.ByName, the same resolution replay uses, so
// the replayed pass repeats this one exactly). Non-cluster organizations
// are a no-op and log nothing.
func (s *Store) Recluster(policy string) (recluster.Result, error) {
	pol, err := recluster.ByName(policy)
	if err != nil {
		return recluster.Result{}, err
	}
	s.mu.Lock()
	c, ok := store.Unwrap(s.Underlying()).(*store.Cluster)
	if !ok {
		s.mu.Unlock()
		return recluster.Result{}, nil
	}
	if err := s.log.Append(Record{Kind: KindRecluster, Policy: policy}); err != nil {
		s.mu.Unlock()
		return recluster.Result{}, err
	}
	res := pol.Maintain(c)
	s.mu.Unlock()
	s.maybeCheckpoint()
	return res, nil
}

// Checkpoint writes a fresh snapshot covering everything logged so far,
// rotates the log and retires fully-covered segments. Mutations are blocked
// only while the in-memory image is captured; the snapshot write and the
// retirement happen concurrently with new appends.
func (s *Store) Checkpoint() error { return s.checkpoint(nil) }

// checkpoint is Checkpoint over the served organization, or — given org —
// Rebase onto org, which replaces it while the mutation lock is held.
func (s *Store) checkpoint(org store.Organization) error {
	s.mu.Lock()
	boundary, err := s.log.BeginCheckpoint()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if org == nil {
		org = s.Underlying()
	}
	img, err := store.Snapshot(org)
	if err == nil {
		s.org.Store(&org)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := writeSnapshot(s.log.opts.FS, s.log.dir, boundary, img); err != nil {
		return err
	}
	s.log.Retire(boundary)
	return nil
}

// maybeCheckpoint starts a background checkpoint once the live log crosses
// Options.CheckpointBytes. At most one runs at a time; a failed one never
// loses data — the log simply keeps growing — and Close returns its error
// (the newest, if several failed) so the operator learns of it.
func (s *Store) maybeCheckpoint() {
	if c := s.log.opts.CheckpointBytes; c <= 0 || s.log.Stats().Bytes < c {
		return
	}
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptRunning.Store(false)
		if err := s.Checkpoint(); err != nil {
			s.ckptErrMu.Lock()
			s.ckptErr = err
			s.ckptErrMu.Unlock()
		}
	}()
}

// Rebase atomically replaces the served organization (the /load path): the
// log's history no longer describes the new store, so a checkpoint of the
// fresh organization is written at the current boundary and every older
// segment retires. The caller keeps ownership of the previous underlying
// organization (fetch it with Underlying before calling) and must quiesce
// mutations around the swap.
func (s *Store) Rebase(org store.Organization) error {
	s.ckptWG.Wait()
	return s.checkpoint(org)
}

// Close waits for any background checkpoint, syncs and closes the log, and
// closes the underlying organization's environment (its backend). It returns
// the first failure of those, else the error of a failed background
// checkpoint. The store must not be used afterwards.
func (s *Store) Close() error {
	s.ckptWG.Wait()
	err := s.log.Close()
	if cerr := s.Underlying().Env().Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.ckptErrMu.Lock()
		err = s.ckptErr
		s.ckptErrMu.Unlock()
	}
	return err
}

// logged is the panic-on-log-failure single-record path behind the
// store.Organization mutating methods.
func (s *Store) logged(rec Record) (bool, error) {
	existed, refused, err := s.Apply([]Record{rec})
	if err != nil {
		panic(fmt.Sprintf("wal: logging %v: %v", rec.Kind, err))
	}
	if refused != nil {
		return false, refused[0]
	}
	return existed[0], nil
}

// Name implements store.Organization.
func (s *Store) Name() string { return s.Underlying().Name() }

// Insert implements store.Organization. It panics when the record cannot be
// logged; use Apply for an error return.
func (s *Store) Insert(o *object.Object, key geom.Rect) error {
	_, err := s.logged(Record{Kind: KindInsert, Obj: o, Key: key})
	return err
}

// Delete implements store.Organization. It panics when the record cannot be
// logged; use Apply for an error return.
func (s *Store) Delete(id object.ID) bool {
	existed, _ := s.logged(Record{Kind: KindDelete, ID: id})
	return existed
}

// Update implements store.Organization. It panics when the record cannot be
// logged, and — as the plain store does — when the store refuses the object;
// use Apply for an error return.
func (s *Store) Update(o *object.Object, key geom.Rect) bool {
	existed, err := s.logged(Record{Kind: KindUpdate, Obj: o, Key: key})
	if err != nil {
		panic(err)
	}
	return existed
}

// PointQuery implements store.Organization.
func (s *Store) PointQuery(p geom.Point) store.QueryResult {
	return s.Underlying().PointQuery(p)
}

// NearestQuery implements store.Organization.
func (s *Store) NearestQuery(p geom.Point, k int) store.NearestResult {
	return s.Underlying().NearestQuery(p, k)
}

// WindowQuery implements store.Organization.
func (s *Store) WindowQuery(w geom.Rect, tech store.Technique) store.QueryResult {
	return s.Underlying().WindowQuery(w, tech)
}

// PrepareFetch implements store.Organization.
func (s *Store) PrepareFetch(leaf disk.PageID, ids []object.ID, m *buffer.Manager, tech store.Technique) store.ObjectFetch {
	return s.Underlying().PrepareFetch(leaf, ids, m, tech)
}

// Tree implements store.Organization.
func (s *Store) Tree() *rtree.Tree { return s.Underlying().Tree() }

// Env implements store.Organization.
func (s *Store) Env() *store.Env { return s.Underlying().Env() }

// Stats implements store.Organization.
func (s *Store) Stats() store.StorageStats { return s.Underlying().Stats() }

// Flush implements store.Organization: the underlying store flushes and the
// log syncs, making everything acknowledged so far durable. It panics when
// the sync fails (the Env.sync contract).
func (s *Store) Flush() {
	s.Underlying().Flush()
	if err := s.log.Sync(); err != nil {
		panic(fmt.Sprintf("wal: flush: %v", err))
	}
}

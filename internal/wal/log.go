// Package wal is the write-ahead log in front of the mutation path: every
// insert, delete, update and recluster is appended — length-prefixed and
// CRC-32-framed, the same discipline as the snapshot format — and synced
// before the in-memory mutation applies, so a crash loses nothing that was
// acknowledged. Recovery loads the newest checkpoint snapshot and replays
// the log tail; a torn tail (a truncated or checksum-failing final record)
// is detected and discarded, everything before it replays exactly.
//
// On disk a WAL directory holds:
//
//	snap-%016x.sdb  checkpoint snapshots (internal/snapshot format); the
//	                hex is the LSN the snapshot covers — every record with
//	                a smaller or equal LSN is baked in
//	wal-%016x.seg   log segments; the hex is the LSN of the first record.
//	                A segment starts with a 16-byte header (magic +
//	                first LSN) followed by framed records with contiguous
//	                ascending LSNs, then zeros: it is created zero-filled to
//	                SegmentBytes; no record is empty, so a zero header ends it
//
// A commit is one write and one sync: Append frames its records into one
// buffer, the segment File rewrites the blocks they cover from its partial
// last block on, around the page cache (O_DIRECT on Linux), and Sync is an
// fdatasync. Sizes count logical bytes, never the zeros after them.
//
// Group commit batches syncs two ways: Store.Apply logs a whole batch of
// mutations behind one sync (the server's mutation dispatcher rides
// this), and Options.SyncEvery > 1 additionally lets that many records
// accumulate before any sync — relaxed durability for bulk churn.
// Checkpoints write a fresh snapshot and retire fully-covered segments
// without stopping the world: mutations pause only for the in-memory
// capture, not for the snapshot write. A new segment's and a renamed
// snapshot's directory entries are synced before anything relies on them.
//
// Durability is this log plus its checkpoint snapshots, over a store on the
// in-memory backend: they are the only bytes a restart reads. The file
// backend (internal/disk/filebackend) is for measuring real I/O next to the
// modelled cost; its page file is scratch, never reopened, so a store on it
// cannot carry a log (spatialcluster.StoreConfig refuses WALPath with a
// page file Path).
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/framing"
	"spatialcluster/internal/obs"
)

// segMagic identifies a WAL segment file and its format version.
const segMagic = "SPCLWAL\x01"

// segHeaderSize is the fixed segment prefix: magic + first LSN.
const segHeaderSize = len(segMagic) + 8

// maxRecordLen bounds a single record's framed payload; a corrupted length
// field must fail cleanly, not attempt a huge allocation.
const maxRecordLen = 16 << 20

// Options tunes a log. The zero value selects strict durability (fsync
// every commit) with sensible segment and checkpoint sizes.
type Options struct {
	// SyncEvery is the group-commit batch size: the log fsyncs once per
	// SyncEvery appended records instead of once per commit (default 1 —
	// every commit is durable before it is acknowledged). Larger values
	// trade the durability of the last few records for throughput; a batch
	// appended by Store.Apply always shares one fsync regardless.
	SyncEvery int
	// SegmentBytes sizes a segment: it is created zero-filled to this size,
	// and a commit that finds it this full starts a fresh one (default 4 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint (snapshot + segment
	// retirement) once the live log exceeds this size (default 32 MB;
	// negative disables automatic checkpoints).
	CheckpointBytes int64
	// FS overrides how segment files are created and reopened; nil selects
	// OS. The fault-injection tests script failures here.
	FS FileSystem
}

func (o Options) withDefaults() Options {
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 32 << 20
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func snapName(upTo uint64) string { return fmt.Sprintf("snap-%016x.sdb", upTo) }

// segment is one live segment file.
type segment struct {
	path  string
	first uint64 // LSN of the first record
	bytes int64  // size including the header
}

// Log is the append side of a write-ahead log directory. It is safe for
// concurrent use; records get contiguous ascending LSNs in append order.
// After any append or sync error the log is poisoned: every later append
// fails with the same error, so the set of acknowledged mutations is exactly
// the durable prefix a recovery will replay.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        File
	segs     []segment // ascending first LSN; the last one is open
	nextLSN  uint64
	unsynced int
	failed   error
	rec      []byte // the record being appended, encoded; reused
	frame    []byte // the commit's records framed; reused

	syncs      atomic.Int64
	lastSyncNS atomic.Int64
	syncHist   obs.Histogram
}

// Stats is a point-in-time summary of the log, surfaced by /stats.
type Stats struct {
	// Segments and Bytes size the live log in logical bytes (no padding).
	Segments int
	Bytes    int64
	// LastLSN is the newest assigned LSN (0 = nothing logged yet).
	LastLSN uint64
	// Syncs counts fsyncs; LastSyncNanos is the duration of the newest one.
	Syncs         int64
	LastSyncNanos int64
}

// createSegmentLocked opens a fresh segment starting at nextLSN and makes
// its directory entry durable.
func (l *Log) createSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.nextLSN))
	f, err := l.opts.FS.Create(path, l.opts.SegmentBytes)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	header := binary.LittleEndian.AppendUint64([]byte(segMagic), l.nextLSN)
	if _, err = f.Write(header); err == nil {
		err = l.opts.FS.SyncDir(l.dir)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: starting segment %d: %w", l.nextLSN, err)
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, first: l.nextLSN, bytes: int64(segHeaderSize)})
	return nil
}

// rotateLocked closes the open segment and starts a fresh one. A segment
// that holds no records yet is kept as-is.
func (l *Log) rotateLocked() error {
	cur := &l.segs[len(l.segs)-1]
	if cur.first == l.nextLSN {
		return nil // still empty, nothing to rotate away from
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.failed = fmt.Errorf("wal: closing segment: %w", err)
		return l.failed
	}
	return l.createSegmentLocked()
}

// Append logs the records as one commit: all of them are framed into one
// write to the open segment (rotating first if the segment is full) and
// share at most one sync — the group commit. LSNs are assigned in order;
// recs[i].LSN is filled in. On error nothing is acknowledged and the log is
// poisoned.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.segs[len(l.segs)-1].bytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.frame = l.frame[:0]
	for i := range recs {
		recs[i].LSN = l.nextLSN + uint64(i)
		l.rec = recs[i].encode(l.rec[:0])
		l.frame = framing.AppendRecord(l.frame, l.rec)
	}
	cur := &l.segs[len(l.segs)-1]
	n, err := l.f.Write(l.frame) // one write per commit: faultinject numbers them
	cur.bytes += int64(n)
	if err == nil && n != len(l.frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: appending record %d: %w", l.nextLSN, err)
		return l.failed
	}
	l.nextLSN += uint64(len(recs))
	l.unsynced += len(recs)
	if l.unsynced >= l.opts.SyncEvery {
		return l.syncLocked()
	}
	return nil
}

// Sync forces a sync of the open segment (a durability barrier).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	d := time.Since(start)
	l.lastSyncNS.Store(d.Nanoseconds())
	l.syncHist.Observe(d)
	l.syncs.Add(1)
	l.unsynced = 0
	return nil
}

// BeginCheckpoint makes everything logged so far durable, rotates to a
// fresh segment and returns the checkpoint boundary: the LSN the snapshot
// about to be captured will cover. The caller must hold the mutation lock,
// capture the store image, and then call Retire(boundary) once the snapshot
// file is safely on disk.
func (l *Log) BeginCheckpoint() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.nextLSN - 1, nil
}

// Retire deletes snapshots and fully-covered segments below the checkpoint
// boundary: a segment is removable once every LSN it holds is <= upTo. File
// removal failures are ignored — a leftover segment is re-skipped by the
// next recovery, never replayed twice.
func (l *Log) Retire(upTo uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	for i, s := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].first <= upTo+1 { // covered
			os.Remove(s.path)
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep

	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if lsn, ok := parseSnapName(e.Name()); ok && lsn < upTo {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// Stats summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{Segments: len(l.segs), LastLSN: l.nextLSN - 1}
	for _, s := range l.segs {
		st.Bytes += s.bytes
	}
	l.mu.Unlock()
	st.Syncs = l.syncs.Load()
	st.LastSyncNanos = l.lastSyncNS.Load()
	return st
}

// SyncHist exposes the fsync latency histogram (one sample per fsync) for
// the serving layer's /stats quantiles and Prometheus exposition.
func (l *Log) SyncHist() *obs.Histogram { return &l.syncHist }

// Close syncs (unless the log is already poisoned) and closes the open
// segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.failed == nil {
		err = l.syncLocked()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && l.failed == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

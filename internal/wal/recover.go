package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/snapshot"
	"spatialcluster/internal/store"
)

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	return parseHexName(name, "wal-", ".seg")
}

// parseSnapName extracts the covered LSN from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	return parseHexName(name, "snap-", ".sdb")
}

func parseHexName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Exists reports whether dir holds write-ahead-log state (a checkpoint
// snapshot or a segment). A missing directory is simply empty.
func Exists(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		_, seg := parseSegName(e.Name())
		if _, snap := parseSnapName(e.Name()); seg || snap {
			return true
		}
	}
	return false
}

// Create attaches a fresh write-ahead log in dir (created if missing) to a
// built organization and returns the logging wrapper. The directory must
// not already hold WAL state — recover an existing log with Recover instead
// of silently shadowing it. Creation writes the initial checkpoint (a
// snapshot of org as handed in), so the directory alone is sufficient to
// recover from the very first crash.
func Create(org store.Organization, dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if Exists(dir) {
		return nil, fmt.Errorf("wal: %s already holds a write-ahead log (use Recover)", dir)
	}
	img, err := store.Snapshot(org)
	if err != nil {
		return nil, fmt.Errorf("wal: initial checkpoint: %w", err)
	}
	if err := writeSnapshot(opts.FS, dir, 0, img); err != nil {
		return nil, err
	}
	log, err := openLog(dir, nil, 1, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{log: log}
	s.org.Store(&org)
	return s, nil
}

// writeSnapshot writes a checkpoint snapshot atomically: to a temp file
// first, renamed into place only once fully durable, so a crash mid-write
// can never leave a half snapshot under a valid name. The rename itself is
// durable once it returns: only then may segments the snapshot covers be
// retired.
func writeSnapshot(fs FileSystem, dir string, upTo uint64, img *store.Image) error {
	final := filepath.Join(dir, snapName(upTo))
	tmp := final + ".tmp"
	err := snapshot.Write(tmp, img)
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing the directory of checkpoint snapshot %d: %w", upTo, err)
	}
	return nil
}

// RecoverStats reports what a recovery did.
type RecoverStats struct {
	// SnapshotLSN is the checkpoint the recovery started from (every
	// record <= SnapshotLSN was already baked into the snapshot).
	SnapshotLSN uint64
	// Replayed counts the records applied from the log tail.
	Replayed int
	// TornTail reports that the final record was truncated or failed its
	// checksum and was discarded — the signature of a crash mid-append.
	TornTail bool
}

// Recover rebuilds the store a WAL directory describes: the newest readable
// checkpoint snapshot is restored onto a fresh environment built by newEnv
// (which receives the snapshot's disk parameters), and the log tail is
// replayed over it. A torn final record is discarded and the segment
// truncated back to its last intact record; corruption anywhere else —
// mid-history, or an LSN gap between segments — is a hard error, because
// silently skipping an interior record would replay a different history
// than the one acknowledged. The returned store continues logging where the
// log left off.
func Recover(dir string, newEnv func(disk.Params) (*store.Env, error), opts Options) (*Store, RecoverStats, error) {
	opts = opts.withDefaults()
	var st RecoverStats

	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, st, err
	}
	if len(snaps) == 0 {
		return nil, st, fmt.Errorf("wal: %s holds no checkpoint snapshot", dir)
	}

	// Newest readable snapshot wins; an unreadable one (a crash straddling
	// retirement, or plain corruption) falls back to the next older, whose
	// covered records are still in the log.
	var img *store.Image
	var snapErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		img, snapErr = snapshot.Read(filepath.Join(dir, snapName(snaps[i])))
		if snapErr == nil {
			st.SnapshotLSN = snaps[i]
			break
		}
	}
	if img == nil {
		return nil, st, fmt.Errorf("wal: no readable checkpoint snapshot: %w", snapErr)
	}

	env, err := newEnv(img.Params)
	if err != nil {
		return nil, st, err
	}
	org, err := store.Restore(img, env)
	if err != nil {
		env.Close()
		return nil, st, fmt.Errorf("wal: restoring checkpoint: %w", err)
	}

	next := st.SnapshotLSN + 1
	var live []segment
	for i, first := range segs {
		path := filepath.Join(dir, segName(first))
		res, err := replaySegment(org, path, first, next, i == len(segs)-1)
		if err != nil {
			env.Close()
			return nil, st, err
		}
		next = res.next
		st.Replayed += res.applied
		st.TornTail = res.torn
		if res.end > 0 {
			live = append(live, segment{path: path, first: first, bytes: res.end})
		}
	}

	log, err := openLog(dir, live, next, opts)
	if err != nil {
		env.Close()
		return nil, st, err
	}
	s := &Store{log: log}
	s.org.Store(&org)
	return s, st, nil
}

// scanDir lists the WAL directory: snapshot LSNs ascending, segment first
// LSNs ascending. Leftover temp files from an interrupted checkpoint are
// removed.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if lsn, ok := parseSnapName(name); ok {
			snaps = append(snaps, lsn)
		}
		if first, ok := parseSegName(name); ok {
			segs = append(segs, first)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

// replayResult reports one segment's replay.
type replayResult struct {
	next    uint64 // LSN the next segment must continue at
	applied int
	torn    bool
	end     int64 // logical end: header plus intact records (0: segment dropped)
}

// replaySegment applies the records of one segment with LSN > next-1 to
// org, verifying the LSN chain is contiguous. The records end at the end of
// the file or at an all-zero record header (the padding of the last block).
// In the last segment a torn record, or a non-zero byte after that header,
// ends the log: the file is truncated back to its last intact record so
// appends can resume; anywhere else it is corruption.
func replaySegment(org store.Organization, path string, first, next uint64, last bool) (replayResult, error) {
	res := replayResult{next: next}
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	header := make([]byte, segHeaderSize)
	_, err = io.ReadFull(f, header)
	if last && (err == io.EOF || err == io.ErrUnexpectedEOF || (err == nil && allZero(header))) {
		// A crash between creating the segment file (and zero-filling it)
		// and completing its header: the segment holds no records. Drop it;
		// openLog will start a fresh one.
		f.Close()
		os.Remove(path)
		res.torn = true
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("wal: %s: reading segment header: %w", path, err)
	}
	if string(header[:len(segMagic)]) != segMagic {
		return res, fmt.Errorf("wal: %s: not a spatialcluster WAL segment (or an unsupported version)", path)
	}
	if got := binary.LittleEndian.Uint64(header[len(segMagic):]); got != first {
		return res, fmt.Errorf("wal: %s: header says first LSN %d, file name says %d", path, got, first)
	}

	r := bufio.NewReader(f)
	offset := int64(segHeaderSize)
	expect := first
	var buf []byte // every record is read into it: a decoded record does not alias its payload
	for {
		res.end = offset
		var payload []byte
		if hdr, _ := r.Peek(framing.RecordSize(0)); !allZero(hdr) {
			payload, err = framing.ReadRecord(r, maxRecordLen, buf)
		} else if rest, rerr := io.ReadAll(r); rerr != nil || allZero(rest) {
			return res, rerr // the end of the file, or of the zero padding
		} else {
			err = &framing.RecordError{Reason: "non-zero bytes after the zero padding"}
		}
		if rerr, ok := err.(*framing.RecordError); ok {
			if !last {
				return res, fmt.Errorf("wal: %s: corrupt record %d mid-history: %v", path, expect, rerr)
			}
			// The torn tail: discard the broken record and everything the
			// poisoned log wrote after it, and truncate so appends resume
			// exactly after the last intact record.
			f.Close()
			if terr := os.Truncate(path, offset); terr != nil {
				return res, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
			}
			res.torn = true
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("wal: %s: %w", path, err)
		}
		buf = payload
		rec, err := decodeRecord(payload)
		if err != nil {
			return res, fmt.Errorf("wal: %s: %w", path, err)
		}
		if rec.LSN != expect {
			return res, fmt.Errorf("wal: %s: record LSN %d where %d was expected", path, rec.LSN, expect)
		}
		offset += int64(framing.RecordSize(len(payload)))
		expect++
		if rec.LSN < res.next {
			continue // already baked into the snapshot
		}
		if rec.LSN != res.next {
			return res, fmt.Errorf("wal: %s: record LSN %d leaves a gap after %d", path, rec.LSN, res.next-1)
		}
		// An insert's or update's error is the store's refusal, and part of
		// the history: the live store logged the record, refused the object
		// and carried on; so does replay.
		if _, err := ApplyRecord(org, &rec); err != nil && rec.Kind != KindInsert && rec.Kind != KindUpdate {
			return res, fmt.Errorf("wal: %s: replaying record %d: %w", path, rec.LSN, err)
		}
		res.next++
		res.applied++
	}
}

// ApplyRecord applies one logged mutation to org — the one application of a
// record: of a commit just logged (Store.Apply), of the log at recovery, and
// of a mutation on a store that has no log (the server's dispatcher).
// existed is the verdict of a delete or update. err is the store's refusal
// of an insert or update — nothing was applied — or, for the kinds only a
// log holds, a policy or kind this build does not know. An update whose
// object no cluster unit can hold is refused here, before Update, which
// would panic on it: the test repeats the store's own admission rule
// (Cluster.admit) until Update can return the store's refusal.
func ApplyRecord(org store.Organization, rec *Record) (existed bool, err error) {
	switch rec.Kind {
	case KindInsert:
		return false, org.Insert(rec.Obj, rec.Key)
	case KindDelete:
		return org.Delete(rec.ID), nil
	case KindUpdate:
		if c, ok := store.Unwrap(org).(*store.Cluster); ok && rec.Obj.Size() > c.Config().SmaxBytes {
			return false, fmt.Errorf("%w: object %d has %d bytes, Smax is %d",
				store.ErrObjectTooLarge, rec.Obj.ID, rec.Obj.Size(), c.Config().SmaxBytes)
		}
		return org.Update(rec.Obj, rec.Key), nil
	case KindRecluster:
		pol, err := recluster.ByName(rec.Policy)
		if err != nil {
			return false, err
		}
		if c, ok := store.Unwrap(org).(*store.Cluster); ok {
			pol.Maintain(c)
		}
		return false, nil
	}
	return false, fmt.Errorf("unknown kind %d", byte(rec.Kind))
}

// allZero reports whether every byte of b is zero (true for an empty b).
func allZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// openLog resumes appending where a replay left off: the surviving last
// segment is reopened for append at its logical end, or a fresh segment is
// started when none survived (or none existed: a new log).
func openLog(dir string, segs []segment, next uint64, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts, nextLSN: next, segs: segs}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		if err := l.createSegmentLocked(); err != nil {
			return nil, err
		}
		return l, nil
	}
	lastSeg := l.segs[len(l.segs)-1]
	f, err := opts.FS.OpenAppend(lastSeg.path, lastSeg.bytes)
	if err != nil {
		return nil, fmt.Errorf("wal: reopening segment: %w", err)
	}
	l.f = f
	return l, nil
}

package wal_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	sc "spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/faultinject"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// smallDataset generates the shared tiny dataset of the WAL tests.
func smallDataset() *datagen.Dataset {
	return datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 7})
}

// buildOrg builds a flushed organization of the given kind ("secondary",
// "primary" or "cluster") over ds.
func buildOrg(kind string, ds *datagen.Dataset) store.Organization {
	org, err := sc.NewStore(kind, sc.StoreConfig{BufferPages: 64, SmaxBytes: ds.Spec.SmaxBytes()}, ds.Objects, ds.MBRs)
	if err != nil {
		panic(err)
	}
	return org
}

// memEnv is the newEnv recovery callback of the tests.
func memEnv(p disk.Params) (*store.Env, error) {
	return store.NewEnvWithParams(64, p), nil
}

// testObject builds a small polyline object.
func testObject(id uint64) *object.Object {
	x := float64(id%100) / 100
	return object.New(object.ID(1_000_000+id), geom.NewPolyline([]geom.Point{
		geom.Pt(x, 0.5), geom.Pt(x+0.01, 0.51),
	}), 300)
}

// TestGroupCommit checks the two fsync-batching mechanisms: a whole Apply
// batch shares one fsync, and SyncEvery > 1 accumulates single-op commits.
func TestGroupCommit(t *testing.T) {
	ds := smallDataset()
	t.Run("batch shares one fsync", func(t *testing.T) {
		ws, err := wal.Create(buildOrg("cluster", ds), t.TempDir(), wal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		muts := make([]wal.Record, 16)
		for i := range muts {
			muts[i] = wal.Record{Kind: wal.KindInsert, Obj: testObject(uint64(i)), Key: testObject(uint64(i)).Bounds()}
		}
		if _, _, err := ws.Apply(muts); err != nil {
			t.Fatal(err)
		}
		st := ws.Log().Stats()
		if st.Syncs != 1 {
			t.Fatalf("16-mutation batch took %d fsyncs, want 1", st.Syncs)
		}
		if st.LastLSN != 16 {
			t.Fatalf("last LSN %d, want 16", st.LastLSN)
		}
	})
	t.Run("SyncEvery accumulates", func(t *testing.T) {
		ws, err := wal.Create(buildOrg("cluster", ds), t.TempDir(), wal.Options{SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		for i := 0; i < 8; i++ {
			o := testObject(uint64(i))
			if _, _, err := ws.Apply([]wal.Record{{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}}); err != nil {
				t.Fatal(err)
			}
		}
		if st := ws.Log().Stats(); st.Syncs != 2 {
			t.Fatalf("8 single-op commits at SyncEvery=4 took %d fsyncs, want 2", st.Syncs)
		}
	})
}

// TestCheckpointRetiresSegments checks rotation and retirement: a tiny
// segment size forces many segments, and a checkpoint retires all of them
// plus the older snapshot, leaving a store that recovers with zero replay.
func TestCheckpointRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	ds := smallDataset()
	ws, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{SegmentBytes: 512, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		o := testObject(uint64(i))
		ws.Insert(o, o.Bounds())
	}
	if st := ws.Log().Stats(); st.Segments < 3 {
		t.Fatalf("512-byte segments after 40 inserts: %d segments, want several", st.Segments)
	}
	if err := ws.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := ws.Log().Stats(); st.Segments != 1 {
		t.Fatalf("after checkpoint: %d live segments, want 1", st.Segments)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sdb") {
			snaps++
		}
		if strings.HasSuffix(e.Name(), ".seg") {
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after checkpoint the dir holds %d snapshots and %d segments, want 1 and 1", snaps, segs)
	}
	want := answers(ws)
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.Replayed != 0 || st.TornTail {
		t.Fatalf("recovery after checkpoint replayed %d records (torn %v), want 0 and false", st.Replayed, st.TornTail)
	}
	if err := diffAnswers(want, answers(rec)); err != nil {
		t.Fatalf("checkpointed store differs after recovery: %v", err)
	}
}

// TestCreateRefusesExistingLog checks that attaching a fresh log to a
// directory that already holds one fails instead of shadowing it.
func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	ds := smallDataset()
	ws, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{}); err == nil {
		t.Fatal("Create over an existing WAL directory succeeded")
	} else if !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestRecoverErrors checks the hard failure modes of Recover: no snapshot,
// and corruption that is not a torn tail.
func TestRecoverErrors(t *testing.T) {
	t.Run("no snapshot", func(t *testing.T) {
		if _, _, err := wal.Recover(t.TempDir(), memEnv, wal.Options{}); err == nil {
			t.Fatal("Recover of an empty directory succeeded")
		}
	})
	t.Run("mid-history corruption", func(t *testing.T) {
		dir := t.TempDir()
		ds := smallDataset()
		// Tiny segments put early records in non-final segments.
		ws, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{SegmentBytes: 512, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			o := testObject(uint64(i))
			ws.Insert(o, o.Bounds())
		}
		ws.Close()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("want several segments, got %v (%v)", segs, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[segmentEnd(t, segs[0])-3] ^= 0x40 // inside the last record
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wal.Recover(dir, memEnv, wal.Options{}); err == nil {
			t.Fatal("Recover over mid-history corruption succeeded")
		} else if !strings.Contains(err.Error(), "mid-history") {
			t.Fatalf("unhelpful error: %v", err)
		}
	})
}

// TestMutatorPanicsOnLogFailure checks the interface contract: when the log
// cannot accept a record, the error-less Organization methods panic rather
// than acknowledge an unlogged mutation.
func TestMutatorPanicsOnLogFailure(t *testing.T) {
	ds := smallDataset()
	// Ops 1-3 are the snapshot's directory sync, the segment header and the
	// segment's directory sync; op 4 is the first record write.
	fs := faultinject.NewFS(map[int64]faultinject.Kind{4: faultinject.Fail})
	ws, err := wal.Create(buildOrg("cluster", ds), t.TempDir(), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert with a failing log did not panic")
		}
	}()
	o := testObject(1)
	ws.Insert(o, o.Bounds())
}

// TestCloseReportsFailedBackgroundCheckpoint: a background checkpoint runs
// on no caller's goroutine, so Close is where its failure surfaces. The log
// crosses its (tiny) checkpoint threshold with an unsynced record; the
// checkpoint's first step — making the log durable — hits the scripted
// fsync failure.
func TestCloseReportsFailedBackgroundCheckpoint(t *testing.T) {
	// Ops 1-3 are the snapshot's directory sync, the segment header and the
	// segment's directory sync, op 4 the record write, op 5 the checkpoint's
	// fsync.
	fs := faultinject.NewFS(map[int64]faultinject.Kind{5: faultinject.Fail})
	ws, err := wal.Create(buildOrg("cluster", smallDataset()), t.TempDir(),
		wal.Options{SyncEvery: 8, CheckpointBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	o := testObject(1)
	if err := ws.Insert(o, o.Bounds()); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err == nil || !strings.Contains(err.Error(), "fsync failed (op 5)") {
		t.Fatalf("Close = %v, want the background checkpoint's fsync failure", err)
	}
}

// TestReclusterReplays checks that a logged recluster pass replays: the
// recovered cluster store matches a reference that ran the same policy at
// the same point of the op stream.
func TestReclusterReplays(t *testing.T) {
	dir := t.TempDir()
	ds := smallDataset()
	ops := mutationOps(t, ds, 60)

	ws, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:30] {
		if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ws.Recluster("threshold"); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[30:] {
		if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop without flush or close.

	rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if want := len(ops) + 1; st.Replayed != want { // +1: the recluster record
		t.Fatalf("replayed %d records, want %d", st.Replayed, want)
	}

	ref := buildOrg("cluster", ds)
	applyRaw(ref, ops[:30])
	pol, err := recluster.ByName("threshold")
	if err != nil {
		t.Fatal(err)
	}
	pol.Maintain(ref.(*store.Cluster))
	applyRaw(ref, ops[30:])
	if err := diffAnswers(answers(ref), answers(rec)); err != nil {
		t.Fatalf("recovered store differs from reference: %v", err)
	}
}

// TestUnknownPolicy checks Recluster's name validation.
func TestUnknownPolicy(t *testing.T) {
	ds := smallDataset()
	ws, err := wal.Create(buildOrg("cluster", ds), t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, err := ws.Recluster("bogus"); err == nil {
		t.Fatal("Recluster with an unknown policy succeeded")
	}
	if st := ws.Log().Stats(); st.LastLSN != 0 {
		t.Fatalf("a rejected policy logged %d records", st.LastLSN)
	}
}

// TestEndOfSegment holds the rule that ends a segment's records: its end of
// file, or an all-zero record header — the zero padding of its last block
// and of the rest of its reservation.
// Non-zero bytes after that header are a torn tail in the last segment and
// corruption in an earlier one.
func TestEndOfSegment(t *testing.T) {
	const K = 40
	ds := smallDataset()
	// crash logs K single-record commits into a fresh log in dir and drops
	// the store without closing it.
	crash := func(t *testing.T, dir string, opts wal.Options) {
		t.Helper()
		opts.CheckpointBytes = -1
		ws, err := wal.Create(buildOrg("cluster", ds), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < K; i++ {
			o := testObject(uint64(i))
			if _, _, err := ws.Apply([]wal.Record{{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// scribble puts a non-zero byte 8 bytes past the segment's logical end,
	// behind a zero record header.
	scribble := func(t *testing.T, path string) int64 {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		end := segmentEnd(t, path)
		for int64(len(data)) <= end+8 {
			data = append(data, 0)
		}
		data[end+8] = 0x5a
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return end
	}

	t.Run("zero padding ends the segment", func(t *testing.T) {
		dir := t.TempDir()
		crash(t, dir, wal.Options{})
		seg := newestSegment(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if end := segmentEnd(t, seg); fi.Size() != 4<<20 || fi.Size() <= end {
			t.Fatalf("segment of %d bytes with logical end %d: want it zero-filled to the 4 MiB SegmentBytes", fi.Size(), end)
		}
		rec, st, err := wal.Recover(dir, memEnv, wal.Options{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if st.Replayed != K || st.TornTail {
			t.Fatalf("recovery replayed %d records (torn %v), want %d clean", st.Replayed, st.TornTail, K)
		}
		// Appending resumes inside the padded block, after the last record.
		o := testObject(K)
		if _, _, err := rec.Apply([]wal.Record{{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}}); err != nil {
			t.Fatal(err)
		}
		again, st, err := wal.Recover(dir, memEnv, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if st.Replayed != K+1 || st.TornTail {
			t.Fatalf("second recovery replayed %d records (torn %v), want %d clean", st.Replayed, st.TornTail, K+1)
		}
	})
	t.Run("non-zero bytes after the padding tear the last segment", func(t *testing.T) {
		dir := t.TempDir()
		crash(t, dir, wal.Options{})
		seg := newestSegment(t, dir)
		end := scribble(t, seg)
		rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st.Replayed != K || !st.TornTail {
			t.Fatalf("recovery replayed %d records (torn %v), want %d torn", st.Replayed, st.TornTail, K)
		}
		if fi, err := os.Stat(seg); err != nil || fi.Size() != end {
			t.Fatalf("recovery left the segment at %v bytes (%v), want it truncated to its logical end %d", fi.Size(), err, end)
		}
	})
	t.Run("a zero-filled last segment without its header is dropped", func(t *testing.T) {
		// A crash after a rotation zero-filled the new segment and before
		// its header reached the disk.
		dir := t.TempDir()
		crash(t, dir, wal.Options{})
		empty := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", K+1))
		if err := os.WriteFile(empty, make([]byte, 64<<10), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Replayed != K || !st.TornTail {
			t.Fatalf("recovery replayed %d records (torn %v), want %d torn", st.Replayed, st.TornTail, K)
		}
		o := testObject(K)
		if _, _, err := rec.Apply([]wal.Record{{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}}); err != nil {
			t.Fatal(err)
		}
		rec.Close()
		again, st, err := wal.Recover(dir, memEnv, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if st.Replayed != K+1 || st.TornTail {
			t.Fatalf("second recovery replayed %d records (torn %v), want %d clean", st.Replayed, st.TornTail, K+1)
		}
	})
	t.Run("non-zero bytes after the padding of an earlier segment are corruption", func(t *testing.T) {
		dir := t.TempDir()
		crash(t, dir, wal.Options{SegmentBytes: 4096})
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("want several segments, got %v (%v)", segs, err)
		}
		scribble(t, segs[0])
		if _, _, err := wal.Recover(dir, memEnv, wal.Options{}); err == nil || !strings.Contains(err.Error(), "mid-history") {
			t.Fatalf("Recover = %v, want a mid-history corruption error", err)
		}
	})
}

// TestRecoverScansThePadding: recovering a one-record log of an empty store
// from a fresh segment, zero-filled to its 4 MiB, scans the padding through
// a fixed buffer instead of holding it: the whole recovery allocates under
// 1 MiB.
func TestRecoverScansThePadding(t *testing.T) {
	dir := t.TempDir()
	org, err := sc.NewStore("cluster", sc.StoreConfig{BufferPages: 64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wal.Create(org, dir, wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	o := testObject(0)
	if _, _, err := ws.Apply([]wal.Record{{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(newestSegment(t, dir)); err != nil || fi.Size() != 4<<20 {
		t.Fatalf("segment: %v (%v), want it zero-filled to 4 MiB", fi, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, st, err := wal.Recover(dir, memEnv, wal.Options{CheckpointBytes: -1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.Replayed != 1 || st.TornTail {
		t.Fatalf("recovery replayed %d records (torn %v), want 1 clean", st.Replayed, st.TornTail)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("recovery allocated %d bytes", got)
	if got >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes, want under 1 MiB", got)
	}
}

// TestCommitLargerThanBuffer: a commit of several blocks, written after a
// partial block, grows the segment's write buffer, and every record of it
// and before it recovers.
func TestCommitLargerThanBuffer(t *testing.T) {
	dir := t.TempDir()
	ws, err := wal.Create(buildOrg("cluster", smallDataset()), dir, wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wal.Record, 61)
	for i := range recs {
		o := testObject(uint64(i))
		recs[i] = wal.Record{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}
	}
	for _, batch := range [][]wal.Record{recs[:1], recs[1:]} {
		if _, _, err := ws.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, end := ws.Log().Stats().Bytes, segmentEnd(t, newestSegment(t, dir)); got != end || end < 5*4096 {
		t.Fatalf("log counts %d bytes, its segment ends at %d: want equal and several blocks", got, end)
	}
	rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.Replayed != len(recs) || st.TornTail {
		t.Fatalf("recovery replayed %d records (torn %v), want %d clean", st.Replayed, st.TornTail, len(recs))
	}
}

// TestCheckpointDirSyncFailure: a checkpoint whose renamed snapshot cannot be
// made durable in its directory fails, and retires no segment — the log
// still holds everything the snapshot would have covered.
func TestCheckpointDirSyncFailure(t *testing.T) {
	// Ops 1-3 are the initial snapshot's directory sync, the segment header
	// and the segment's directory sync; ops 4-5 the record's write and
	// fsync; the checkpoint's rotation is ops 6-7 (header, directory sync)
	// and op 8 the directory sync after the snapshot's rename.
	fs := faultinject.NewFS(map[int64]faultinject.Kind{8: faultinject.Fail})
	dir := t.TempDir()
	ws, err := wal.Create(buildOrg("cluster", smallDataset()), dir, wal.Options{CheckpointBytes: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	o := testObject(1)
	if err := ws.Insert(o, o.Bounds()); err != nil {
		t.Fatal(err)
	}
	if err := ws.Checkpoint(); err == nil || !strings.Contains(err.Error(), "fsync failed (op 8)") {
		t.Fatalf("Checkpoint = %v, want the directory sync's failure", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("after the failed checkpoint the directory holds segments %v (%v), want both", segs, err)
	}
	if st := ws.Log().Stats(); st.Segments != 2 {
		t.Fatalf("after the failed checkpoint the log has %d live segments, want 2", st.Segments)
	}
}

// TestRefusedBeforeLogging: an insert or update whose object the store could
// not hold — a key that is not a rectangle, a key that does not contain the
// object, a non-finite vertex — is refused before the log sees it. On all
// three organizations the call returns an error, the log's stats do not move,
// and recovery rebuilds the store as it was. Each case runs on a fresh store:
// a store that logged the record and then panicked applying it would hold its
// mutation lock for good.
func TestRefusedBeforeLogging(t *testing.T) {
	ds := smallDataset()
	nan := math.NaN()
	live := ds.Objects[0].ID
	bad := func(id object.ID) []struct {
		name string
		obj  *object.Object
		key  geom.Rect
	} {
		o := testObject(1)
		o.ID = id
		ray := object.New(id, geom.NewPolyline([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(nan, 0.5)}), 0)
		return []struct {
			name string
			obj  *object.Object
			key  geom.Rect
		}{
			{"NaN key", o, geom.Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1}},
			{"infinite key", o, geom.Rect{MinX: math.Inf(-1), MinY: 0, MaxX: 1, MaxY: 1}},
			{"key short of the object", o, geom.R(0, 0, 0.001, 0.001)},
			{"non-finite vertex", ray, geom.R(0, 0, 1, 1)},
		}
	}
	for _, kind := range allKinds {
		for _, kindOp := range []wal.Kind{wal.KindInsert, wal.KindUpdate} {
			id := object.ID(9_000_000)
			if kindOp == wal.KindUpdate {
				id = live
			}
			for _, c := range bad(id) {
				t.Run(fmt.Sprintf("%s/%v/%s", kind, kindOp, c.name), func(t *testing.T) {
					dir := t.TempDir()
					ws, err := wal.Create(buildOrg(kind, ds), dir, wal.Options{CheckpointBytes: -1})
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := answers(ws), ws.Stats()
					before := ws.Log().Stats()
					var refusal error
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("the mutation panicked: %v", r)
							}
						}()
						if kindOp == wal.KindInsert {
							refusal = ws.Insert(c.obj, c.key)
							return
						}
						_, refused, err := ws.Apply([]wal.Record{{Kind: wal.KindUpdate, Obj: c.obj, Key: c.key}})
						if err != nil {
							t.Fatal(err)
						}
						if refused != nil {
							refusal = refused[0]
						}
					}()
					if refusal == nil {
						t.Error("the mutation was taken")
					}
					if after := ws.Log().Stats(); after != before {
						t.Errorf("the log moved: %+v, before %+v", after, before)
					}
					// Crash: recover from the directory as it stands.
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("recovery panicked: %v", r)
							}
						}()
						rec, _, err := wal.Recover(dir, memEnv, wal.Options{CheckpointBytes: -1})
						if err != nil {
							t.Fatal(err)
						}
						defer rec.Close()
						if err := diffAnswers(want, answers(rec)); err != nil {
							t.Error(err)
						}
						if got := rec.Stats(); got != wantStats {
							t.Errorf("recovered Stats %+v, want %+v", got, wantStats)
						}
					}()
				})
			}
		}
	}
}

// TestRefusedRecordLeavesItsBatch: a record refused before logging takes
// nothing else in its commit with it. The records around it are logged as
// one commit and applied, a delete after it included.
func TestRefusedRecordLeavesItsBatch(t *testing.T) {
	ds := smallDataset()
	ws, err := wal.Create(buildOrg("cluster", ds), t.TempDir(), wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	good, short := testObject(1), testObject(2)
	existed, refused, err := ws.Apply([]wal.Record{
		{Kind: wal.KindInsert, Obj: good, Key: good.Bounds()},
		{Kind: wal.KindInsert, Obj: short, Key: geom.R(0, 0, 0.001, 0.001)},
		{Kind: wal.KindDelete, ID: ds.Objects[0].ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if refused == nil || refused[0] != nil || refused[1] == nil || refused[2] != nil {
		t.Fatalf("refused %v: want the second record alone", refused)
	}
	if !existed[2] {
		t.Error("the delete after the refused record found nothing")
	}
	if st := ws.Log().Stats(); st.LastLSN != 2 || st.Syncs != 1 {
		t.Errorf("log %+v: want two records in one commit", st)
	}
	if got := ws.PointQuery(good.Geom.(*geom.Polyline).Vertices[0]).IDs; !slices.Contains(got, good.ID) {
		t.Errorf("the insert before the refused record is not served: %v", got)
	}
}

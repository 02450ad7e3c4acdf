package wal_test

import (
	"os"
	"path/filepath"
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
		data[len(data)-3] ^= 0x40
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
	// Op 1 is the segment header; op 2 is the first record write.
	fs := faultinject.NewFS(map[int64]faultinject.Kind{2: faultinject.Fail})
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
	// Op 1 is the segment header, op 2 the record write, op 3 the
	// checkpoint's fsync.
	fs := faultinject.NewFS(map[int64]faultinject.Kind{3: faultinject.Fail})
	ws, err := wal.Create(buildOrg("cluster", smallDataset()), t.TempDir(),
		wal.Options{SyncEvery: 8, CheckpointBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	o := testObject(1)
	if err := ws.Insert(o, o.Bounds()); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err == nil || !strings.Contains(err.Error(), "fsync failed (op 3)") {
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

package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/faultinject"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// mutationOps generates n non-query ops of the seeded mixed workload.
func mutationOps(t *testing.T, ds *datagen.Dataset, n int) []datagen.Op {
	t.Helper()
	all := ds.MixedWorkload(datagen.MixSpec{Ops: 4 * n, Seed: 3, HotspotFrac: 0.5})
	ops := make([]datagen.Op, 0, n)
	for _, op := range all {
		if op.Kind == datagen.OpWindow {
			continue
		}
		ops = append(ops, op)
		if len(ops) == n {
			return ops
		}
	}
	t.Fatalf("workload of %d ops yielded only %d mutations, want %d", 4*n, len(ops), n)
	return nil
}

// toMutation converts a workload op into an Apply entry.
func toMutation(op datagen.Op) wal.Record {
	switch op.Kind {
	case datagen.OpInsert:
		return wal.Record{Kind: wal.KindInsert, Obj: op.Obj, Key: op.Key}
	case datagen.OpDelete:
		return wal.Record{Kind: wal.KindDelete, ID: op.ID}
	case datagen.OpUpdate:
		return wal.Record{Kind: wal.KindUpdate, Obj: op.Obj, Key: op.Key}
	}
	panic(fmt.Sprintf("not a mutation: %v", op.Kind))
}

// applyRaw applies the ops directly to an unwrapped organization — the
// never-crashed reference of the differential suite.
func applyRaw(org store.Organization, ops []datagen.Op) {
	for _, op := range ops {
		switch op.Kind {
		case datagen.OpInsert:
			org.Insert(op.Obj, op.Key)
		case datagen.OpDelete:
			org.Delete(op.ID)
		case datagen.OpUpdate:
			org.Update(op.Obj, op.Key)
		}
	}
}

// probeWindows are the fixed query windows of the differential comparison.
var probeWindows = []geom.Rect{
	geom.R(0.1, 0.1, 0.4, 0.4),
	geom.R(0.3, 0.5, 0.7, 0.9),
	geom.R(0.0, 0.0, 1.0, 1.0),
	geom.R(0.45, 0.45, 0.55, 0.55),
}

// probePoints are the fixed point-query probes.
var probePoints = []geom.Point{
	geom.Pt(0.25, 0.25), geom.Pt(0.5, 0.5), geom.Pt(0.75, 0.4),
}

// answers captures the full query surface of a store: the sorted result set
// of every probe window, point probe, and the ordered k-NN lists. Two stores
// holding the same objects must produce identical answers.
func answers(org store.Organization) map[string][]object.ID {
	org.Flush()
	out := make(map[string][]object.ID)
	for i, w := range probeWindows {
		ids := append([]object.ID(nil), org.WindowQuery(w, store.TechComplete).IDs...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[fmt.Sprintf("win%d", i)] = ids
	}
	for i, p := range probePoints {
		ids := append([]object.ID(nil), org.PointQuery(p).IDs...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[fmt.Sprintf("pt%d", i)] = ids
		// k-NN answers are deterministically ordered; keep the order.
		out[fmt.Sprintf("knn%d", i)] = append([]object.ID(nil), org.NearestQuery(p, 8).IDs...)
	}
	return out
}

// diffAnswers reports the first difference between two answer sets.
func diffAnswers(want, got map[string][]object.ID) error {
	for key, w := range want {
		g := got[key]
		if len(w) != len(g) {
			return fmt.Errorf("%s: %d results, want %d", key, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("%s[%d]: object %d, want %d", key, i, g[i], w[i])
			}
		}
	}
	return nil
}

// allKinds is the organization comparison set of the differential suite.
var allKinds = []string{"secondary", "primary", "cluster"}

// TestKillAtN is the kill-at-N differential suite: build a store, wrap it in
// a WAL, apply K single-op commits of a seeded mixed workload with a scripted
// fault, "crash" (drop the store without flush or close), recover, and
// require the recovered store's window/point/k-NN answers to be identical to
// a never-crashed reference that applied exactly the durable prefix. Runs for
// all three organizations.
//
// Operation numbering (SyncEvery=1, one-record commits, no rotation): op 1 is
// the segment header write, record i's write is op 2i and its fsync op 2i+1.
func TestKillAtN(t *testing.T) {
	const K, M = 60, 20
	cases := []struct {
		name   string
		faults map[int64]faultinject.Kind
		// mangle corrupts the WAL directory after the crash.
		mangle func(t *testing.T, dir string)
		// wantAcked is how many ops Apply must accept before erroring.
		wantAcked int
		// wantPrefix is the durable prefix recovery must restore, exactly.
		wantPrefix int
		wantTorn   bool
	}{
		{
			name:      "clean crash",
			wantAcked: K, wantPrefix: K, wantTorn: false,
		},
		{
			name:      "torn final record",
			mangle:    truncateTail(3),
			wantAcked: K, wantPrefix: K - 1, wantTorn: true,
		},
		{
			// The write of record M persists only half the buffer: the tail
			// is torn at M and ops M..K were never acknowledged.
			name:      "short write at record M",
			faults:    map[int64]faultinject.Kind{2 * M: faultinject.ShortWrite},
			wantAcked: M - 1, wantPrefix: M - 1, wantTorn: true,
		},
		{
			// The medium lies: record M is acknowledged but corrupt on disk,
			// so recovery truncates at M-1 — every record after the flip is
			// sacrificed to keep the replayed history contiguous.
			name:      "bit flip at record M",
			faults:    map[int64]faultinject.Kind{2 * M: faultinject.BitFlip},
			wantAcked: K, wantPrefix: M - 1, wantTorn: true,
		},
		{
			// The fsync of record M fails: the op was never acknowledged, but
			// its intact record is on disk and legitimately survives — the
			// durable prefix may exceed the acknowledged one, never trail it.
			name:      "fsync fail at record M",
			faults:    map[int64]faultinject.Kind{2*M + 1: faultinject.Fail},
			wantAcked: M - 1, wantPrefix: M, wantTorn: false,
		},
	}
	ds := smallDataset()
	for _, kind := range allKinds {
		ops := mutationOps(t, ds, K)
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := wal.Options{SyncEvery: 1, CheckpointBytes: -1}
				if tc.faults != nil {
					opts.FS = faultinject.NewFS(tc.faults)
				}
				ws, err := wal.Create(buildOrg(kind, ds), dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				acked := 0
				for _, op := range ops {
					if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
						break
					}
					acked++
				}
				if acked != tc.wantAcked {
					t.Fatalf("%d ops acknowledged, want %d", acked, tc.wantAcked)
				}
				// Crash: drop ws without Flush or Close.
				if tc.mangle != nil {
					tc.mangle(t, dir)
				}

				rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if st.Replayed != tc.wantPrefix || st.TornTail != tc.wantTorn {
					t.Fatalf("recovery replayed %d records (torn %v), want %d (torn %v)",
						st.Replayed, st.TornTail, tc.wantPrefix, tc.wantTorn)
				}

				ref := buildOrg(kind, ds)
				applyRaw(ref, ops[:tc.wantPrefix])
				if err := diffAnswers(answers(ref), answers(rec)); err != nil {
					t.Fatalf("recovered store differs from never-crashed reference: %v", err)
				}
			})
		}
	}
}

// truncateTail cuts n bytes off the newest WAL segment — the torn final
// record a power cut mid-write leaves behind.
func truncateTail(n int64) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments to truncate: %v (%v)", segs, err)
		}
		sort.Strings(segs)
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()-n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillAfterCheckpoint crashes after a mid-stream checkpoint: recovery
// must start from the checkpoint snapshot and replay only the post-checkpoint
// tail, for all three organizations.
func TestKillAfterCheckpoint(t *testing.T) {
	const K = 60
	ds := smallDataset()
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			ops := mutationOps(t, ds, K)
			ws, err := wal.Create(buildOrg(kind, ds), dir, wal.Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[:K/2] {
				if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ws.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[K/2:] {
				if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
					t.Fatal(err)
				}
			}
			// Crash.

			rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if want := K - K/2; st.Replayed != want || st.TornTail {
				t.Fatalf("recovery replayed %d records (torn %v), want %d from the checkpoint", st.Replayed, st.TornTail, want)
			}

			ref := buildOrg(kind, ds)
			applyRaw(ref, ops)
			if err := diffAnswers(answers(ref), answers(rec)); err != nil {
				t.Fatalf("recovered store differs from never-crashed reference: %v", err)
			}
		})
	}
}

// TestCrashTwice tears the tail, recovers, keeps mutating the recovered
// store, crashes again and recovers again — the recovered-from state must
// itself be recoverable.
func TestCrashTwice(t *testing.T) {
	const K, extra = 60, 10
	ds := smallDataset()
	dir := t.TempDir()
	ops := mutationOps(t, ds, K+extra)

	ws, err := wal.Create(buildOrg("cluster", ds), dir, wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:K] {
		if _, _, err := ws.Apply([]wal.Record{toMutation(op)}); err != nil {
			t.Fatal(err)
		}
	}
	// First crash, with a torn final record.
	truncateTail(3)(t, dir)

	mid, st, err := wal.Recover(dir, memEnv, wal.Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != K-1 || !st.TornTail {
		t.Fatalf("first recovery replayed %d records (torn %v), want %d torn", st.Replayed, st.TornTail, K-1)
	}
	for _, op := range ops[K:] {
		if _, _, err := mid.Apply([]wal.Record{toMutation(op)}); err != nil {
			t.Fatal(err)
		}
	}
	// Second crash, this time clean.

	rec, st, err := wal.Recover(dir, memEnv, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if want := K - 1 + extra; st.Replayed != want || st.TornTail {
		t.Fatalf("second recovery replayed %d records (torn %v), want %d clean", st.Replayed, st.TornTail, want)
	}

	ref := buildOrg("cluster", ds)
	applyRaw(ref, ops[:K-1]) // the torn record K never happened
	applyRaw(ref, ops[K:])
	if err := diffAnswers(answers(ref), answers(rec)); err != nil {
		t.Fatalf("twice-recovered store differs from reference: %v", err)
	}
}

package spatialcluster

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestWALRoundTrip drives the public durability API: build a WAL-attached
// store, mutate it, crash (drop without Flush), and recover — the answers
// must survive, and further mutations plus Recluster and a checkpoint must
// work on the recovered store.
func TestWALRoundTrip(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := StoreConfig{WALPath: walDir, SmaxBytes: 16 * 1024}
	org := buildSmallStore(t, cfg)
	if _, ok := StoreWALStats(org); !ok {
		t.Fatal("WAL-configured store reports no WAL stats")
	}
	if !org.Delete(ObjectID(3)) {
		t.Fatal("delete of a stored object missed")
	}
	if _, _, err := Recluster(org, "incremental"); err != nil {
		t.Fatal(err)
	}
	w := R(0.1, 0.1, 0.6, 0.6)
	want := queryIDs(org, w)
	// Crash: drop org without Flush or CloseStore.

	rec, info, err := RecoverStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 {
		t.Fatal("recovery replayed nothing; the mutations were not logged")
	}
	if info.TornTail {
		t.Fatal("recovery of an intact log reported a torn tail")
	}
	if got := queryIDs(rec, w); len(got) != len(want) {
		t.Fatalf("recovered window answers %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("recovered window answer %d differs", i)
			}
		}
	}

	obj := NewObject(ObjectID(10001), NewPolyline([]Point{Pt(0.5, 0.5), Pt(0.51, 0.5)}), 500)
	rec.Insert(obj, obj.Bounds())
	if err := CheckpointStore(rec); err != nil {
		t.Fatal(err)
	}
	if st, ok := StoreWALStats(rec); !ok || st.Segments != 1 {
		t.Fatalf("after checkpoint: stats %+v ok=%v, want one live segment", st, ok)
	}
	if err := CloseStore(rec); err != nil {
		t.Fatal(err)
	}
}

// TestWALBulkLoadIsCheckpoint: objects handed to NewStore are the log's
// initial checkpoint, not log records — a crash right after the build
// recovers all of them with nothing to replay — and Open attaches a fresh log
// to a reopened snapshot the same way.
func TestWALBulkLoadIsCheckpoint(t *testing.T) {
	ds := GenerateMap(MapSpec{Map: Map1, Series: SeriesA, Scale: 512, Seed: 9})
	cfg := StoreConfig{WALPath: filepath.Join(t.TempDir(), "wal"), SmaxBytes: ds.Spec.SmaxBytes()}
	org, err := NewStore("cluster", cfg, ds.Objects, ds.MBRs)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := StoreWALStats(org); !ok || st.LastLSN != 0 {
		t.Fatalf("after the bulk load: WAL stats %+v ok=%v, want an empty log", st, ok)
	}
	snap := filepath.Join(t.TempDir(), "store.sdb")
	if err := Save(org, snap); err != nil {
		t.Fatal(err)
	}
	// Crash: drop org without Flush or CloseStore.
	rec, info, err := RecoverStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 || rec.Stats() != org.Stats() {
		t.Fatalf("recovered %d replayed records and %+v, want 0 and %+v", info.Replayed, rec.Stats(), org.Stats())
	}
	if err := CloseStore(rec); err != nil {
		t.Fatal(err)
	}

	cfg.WALPath = filepath.Join(t.TempDir(), "wal2")
	reopened, err := Open(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := StoreWALStats(reopened); !ok || st.LastLSN != 0 || reopened.Stats() != org.Stats() {
		t.Fatalf("Open with WALPath: WAL stats %+v ok=%v, Stats %+v", st, ok, reopened.Stats())
	}
	if err := CloseStore(reopened); err != nil {
		t.Fatal(err)
	}
}

// TestJoinOverWAL joins WAL-attached stores of every organization: the log
// wraps the organization, and the join must see through the wrapper — decode
// the primary organization's tagged entries and price Figure 16's optimum for
// the cluster organization — so that it reports exactly what the join of the
// same stores without a log reports.
func TestJoinOverWAL(t *testing.T) {
	dsR := GenerateMap(MapSpec{Map: Map1, Series: SeriesA, Scale: 512, Seed: 3})
	dsS := GenerateMap(MapSpec{Map: Map2, Series: SeriesA, Scale: 512, Seed: 4})
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			build := func(ds *Dataset, walDir string) Organization {
				cfg := StoreConfig{SmaxBytes: ds.Spec.SmaxBytes()}
				if walDir != "" {
					cfg.WALPath = filepath.Join(t.TempDir(), walDir)
				}
				org, err := NewStore(kind, cfg, ds.Objects, ds.MBRs)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { CloseStore(org) })
				return org
			}
			cfg := JoinConfig{BufferPages: 200, Technique: TechSLM}
			want := RunJoin(build(dsR, ""), build(dsS, ""), cfg)
			got := RunJoin(build(dsR, "r"), build(dsS, "s"), cfg)
			if got != want {
				t.Fatalf("join over WAL-attached stores = %+v, want %+v", got, want)
			}
			if want.ResultPairs == 0 || (kind == "cluster") != (want.OptimumMS > 0) {
				t.Fatalf("plain join %+v: no result pairs, or an optimum on the wrong organization", want)
			}
		})
	}
}

// TestWALConfigErrors checks the misconfiguration paths of the public API.
func TestWALConfigErrors(t *testing.T) {
	if _, _, err := RecoverStore(StoreConfig{}); err == nil || !strings.Contains(err.Error(), "WALPath") {
		t.Fatalf("RecoverStore without WALPath: %v", err)
	}
	bad := StoreConfig{WALPath: t.TempDir(), Path: filepath.Join(t.TempDir(), "p.db")}
	if _, _, err := RecoverStore(bad); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("RecoverStore with the file backend: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewClusterStore with WALPath+Path did not panic")
			}
		}()
		NewClusterStore(bad)
	}()
	if _, _, err := RecoverStore(StoreConfig{WALPath: t.TempDir()}); err == nil {
		t.Fatal("RecoverStore of an empty directory succeeded")
	}
}

package store

import (
	"path/filepath"
	"sort"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/disk/filebackend"
	"spatialcluster/internal/object"
)

// buildOrgOn is buildOrg over an explicit backend.
func buildOrgOn(t *testing.T, kind string, ds *datagen.Dataset, bufPages int, b disk.Backend) Organization {
	t.Helper()
	env := NewEnvOn(bufPages, buffer.PolicyLRU, disk.DefaultParams(), b)
	var org Organization
	switch kind {
	case "secondary":
		org = NewSecondary(env)
	case "primary":
		org = NewPrimary(env)
	case "cluster":
		org = NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	case "cluster-buddy":
		org = NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
	default:
		t.Fatalf("unknown org kind %q", kind)
	}
	for i, o := range ds.Objects {
		org.Insert(o, ds.MBRs[i])
	}
	org.Flush()
	env.Buf.Clear()
	env.Disk.ResetCost()
	return org
}

// checkSameAnswers asserts that two organizations answer an identical query
// mix with identical result sets.
func checkSameAnswers(t *testing.T, phase string, a, b Organization, ds *datagen.Dataset) {
	t.Helper()
	ws := append(ds.Windows(0.001, 8, 5), ds.Windows(0.01, 4, 6)...)
	for wi, w := range ws {
		want := sortedIDs(a.WindowQuery(w, TechComplete).IDs)
		got := sortedIDs(b.WindowQuery(w, TechComplete).IDs)
		if !idsEqual(got, want) {
			t.Fatalf("%s: window %d: answers differ (%d vs %d)", phase, wi, len(got), len(want))
		}
	}
	for pi, pt := range ds.Points(8, 7) {
		if !idsEqual(sortedIDs(a.PointQuery(pt).IDs), sortedIDs(b.PointQuery(pt).IDs)) {
			t.Fatalf("%s: point %d: answers differ", phase, pi)
		}
		want := a.NearestQuery(pt, 10)
		got := b.NearestQuery(pt, 10)
		if !idsEqual(got.IDs, want.IDs) {
			t.Fatalf("%s: 10-NN %d: answers differ: %v vs %v", phase, pi, got.IDs, want.IDs)
		}
	}
}

// TestSnapshotRestoreRoundTrip checks, for every organization kind, that a
// snapshotted and restored store is indistinguishable from the original:
// same StorageStats, same answer sets, and still fully mutable (the restored
// store survives a churn stream and agrees with the original under the same
// stream).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 41,
	})
	for _, kind := range []string{"secondary", "primary", "cluster", "cluster-buddy"} {
		t.Run(kind, func(t *testing.T) {
			org := buildOrg2(t, kind, ds)

			// One deterministic stream, split at the save point: the first
			// half churns the store before saving so tombstones, dead bytes
			// and freed units are part of the snapshotted state; the second
			// half continues on both stores after the restore.
			ops := ds.MixedWorkload(datagen.MixSpec{Ops: 600, HotspotFrac: 0.5, Seed: 42})
			applyMix(t, org, newLiveSet(ds), ops[:300])
			org.Flush()

			img, err := Snapshot(org)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(img, NewEnvOn(128, buffer.PolicyLRU, img.Params, nil))
			if err != nil {
				t.Fatal(err)
			}

			if got, want := restored.Stats(), org.Stats(); got != want {
				t.Fatalf("restored stats %+v, want %+v", got, want)
			}
			if restored.Name() != org.Name() {
				t.Fatalf("restored as %q, want %q", restored.Name(), org.Name())
			}
			checkSameAnswers(t, "after restore", org, restored, ds)

			// The restored store must keep working under further mutation,
			// in lock-step with the original.
			applyMix(t, org, newLiveSet(ds), ops[300:])
			applyMix(t, restored, newLiveSet(ds), ops[300:])
			org.Flush()
			restored.Flush()
			if got, want := restored.Stats(), org.Stats(); got != want {
				t.Fatalf("post-churn stats diverged: %+v vs %+v", got, want)
			}
			checkSameAnswers(t, "after post-restore churn", org, restored, ds)
		})
	}
}

// TestRestoreDoesNotResurrectDeletedOnPageZero is the regression test for a
// subtle restore bug: the live index of a restored cluster unit was rebuilt
// with a plain map lookup of c.homes, whose zero value PageID(0) matched the
// unit attached to data page 0 (the original root leaf stays a data page
// across root splits). A tombstoned object of that unit — absent from homes
// — was thereby resurrected into the index, so the unit's extent never
// returned to the allocator once its last live object died.
func TestRestoreDoesNotResurrectDeletedOnPageZero(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 13,
	})
	org := buildOrg2(t, "cluster", ds).(*Cluster)

	// The objects homed on data page 0 (there are some as long as page 0 is
	// a live data page, which the R*-tree preserves across root splits).
	var onZero []object.ID
	for id, leaf := range org.homes {
		if leaf == 0 {
			onZero = append(onZero, id)
		}
	}
	if len(onZero) < 2 {
		t.Skipf("no unit on data page 0 in this build (%d objects)", len(onZero))
	}
	sort.Slice(onZero, func(i, j int) bool { return onZero[i] < onZero[j] })

	// Tombstone one of them, then snapshot and restore.
	if !org.Delete(onZero[0]) {
		t.Fatal("delete failed")
	}
	org.Flush()
	img, err := Snapshot(org)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(img, NewEnvOn(128, buffer.PolicyLRU, img.Params, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Delete every remaining live object of that unit on both stores: the
	// unit must empty out and return its extent on both, so the storage
	// statistics stay in lock-step. A resurrected tombstone would keep the
	// restored unit's index non-empty and leak the extent.
	for _, id := range onZero[1:] {
		if !org.Delete(id) || !restored.Delete(id) {
			t.Fatalf("delete of %d diverged between original and restored", id)
		}
	}
	org.Flush()
	restored.Flush()
	if got, want := restored.Stats(), org.Stats(); got != want {
		t.Fatalf("stats diverged after emptying the page-0 unit:\nrestored %+v\noriginal %+v", got, want)
	}
}

// buildOrg2 builds including the buddy variant (buildOrg predates it).
func buildOrg2(t *testing.T, kind string, ds *datagen.Dataset) Organization {
	t.Helper()
	return buildOrgOn(t, kind, ds, 128, nil)
}

// TestSnapshotDeterministic checks that snapshotting the same store twice
// yields identical images (the byte-reproducibility of Save rests on this).
func TestSnapshotDeterministic(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 9,
	})
	org := buildOrg2(t, "cluster-buddy", ds)
	a, err := Snapshot(org)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Snapshot(org)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pages) != len(b.Pages) || len(a.Cluster.Units) != len(b.Cluster.Units) {
		t.Fatal("snapshot shapes differ between two captures")
	}
	for i := range a.Pages {
		if a.Pages[i].ID != b.Pages[i].ID || string(a.Pages[i].Data) != string(b.Pages[i].Data) {
			t.Fatalf("page image %d differs between two captures", i)
		}
	}
	for i := range a.Cluster.Units {
		au, bu := a.Cluster.Units[i], b.Cluster.Units[i]
		if au.Leaf != bu.Leaf || au.Extent != bu.Extent || au.Used != bu.Used {
			t.Fatalf("unit image %d differs between two captures", i)
		}
	}
}

// TestBackendsAgree builds the same organization on the memory backend and
// on the file backend and checks that modelled construction cost, storage
// statistics and all answer sets are identical — the backend choice must be
// invisible to everything but wall-clock time and durability.
func TestBackendsAgree(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 21,
	})
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			fb, err := filebackend.Open(filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			mem := buildOrgOn(t, kind, ds, 128, nil)
			file := buildOrgOn(t, kind, ds, 128, fb)
			defer file.Env().Close()

			if got, want := file.Stats(), mem.Stats(); got != want {
				t.Fatalf("file-backed stats %+v, want %+v", got, want)
			}
			checkSameAnswers(t, "mem vs file", mem, file, ds)

			// Modelled query costs must match request by request.
			w := ds.Windows(0.01, 1, 3)[0]
			cm := mem.WindowQuery(w, TechComplete).Cost
			cf := file.WindowQuery(w, TechComplete).Cost
			if cm != cf {
				t.Fatalf("modelled window cost differs: mem %v, file %v", cm, cf)
			}
			if file.Env().Disk.Measured().IOSeconds() <= 0 {
				t.Fatal("file backend measured no wall-clock I/O")
			}
			if mem.Env().Disk.Measured() != (disk.Measured{}) {
				t.Fatal("memory backend reported measured I/O")
			}
		})
	}
}

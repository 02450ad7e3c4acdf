package store

import (
	"math/rand"
	"sync"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// liveSet is the reference state a mutation sequence is checked against.
type liveSet struct {
	objs map[object.ID]*object.Object
	mbrs map[object.ID]geom.Rect
}

func newLiveSet(ds *datagen.Dataset) *liveSet {
	ls := &liveSet{
		objs: make(map[object.ID]*object.Object, len(ds.Objects)),
		mbrs: make(map[object.ID]geom.Rect, len(ds.Objects)),
	}
	for i, o := range ds.Objects {
		ls.objs[o.ID] = o
		ls.mbrs[o.ID] = ds.MBRs[i]
	}
	return ls
}

func (ls *liveSet) window(w geom.Rect) map[object.ID]bool {
	out := map[object.ID]bool{}
	for id, o := range ls.objs {
		if ls.mbrs[id].Intersects(w) && o.Geom.IntersectsRect(w) {
			out[id] = true
		}
	}
	return out
}

// applyMix drives the same workload into an organization and the reference
// live set.
func applyMix(t *testing.T, org Organization, ls *liveSet, ops []datagen.Op) {
	t.Helper()
	for _, op := range ops {
		switch op.Kind {
		case datagen.OpInsert:
			org.Insert(op.Obj, op.Key)
			ls.objs[op.Obj.ID] = op.Obj
			ls.mbrs[op.Obj.ID] = op.Key
		case datagen.OpDelete:
			if !org.Delete(op.ID) {
				t.Fatalf("%s: delete of live object %d failed", org.Name(), op.ID)
			}
			delete(ls.objs, op.ID)
			delete(ls.mbrs, op.ID)
		case datagen.OpUpdate:
			if !org.Update(op.Obj, op.Key) {
				t.Fatalf("%s: update of live object %d failed", org.Name(), op.Obj.ID)
			}
			ls.objs[op.Obj.ID] = op.Obj
			ls.mbrs[op.Obj.ID] = op.Key
		case datagen.OpWindow:
			org.WindowQuery(op.Window, TechComplete)
		}
	}
	org.Flush()
}

func checkAgainstLiveSet(t *testing.T, org Organization, ls *liveSet, ws []geom.Rect) {
	t.Helper()
	if _, err := org.Tree().CheckInvariants(); err != nil {
		t.Fatalf("%s: tree invariants after churn: %v", org.Name(), err)
	}
	for i, w := range ws {
		res := org.WindowQuery(w, TechComplete)
		want := ls.window(w)
		if len(res.IDs) != len(want) {
			t.Fatalf("%s window %d: got %d answers, want %d", org.Name(), i, len(res.IDs), len(want))
		}
		for _, id := range res.IDs {
			if !want[id] {
				t.Fatalf("%s window %d: unexpected answer %d", org.Name(), i, id)
			}
		}
	}
	st := org.Stats()
	if st.Objects != len(ls.objs) {
		t.Fatalf("%s: stats report %d objects, want %d", org.Name(), st.Objects, len(ls.objs))
	}
}

// TestDeleteUpdateAgreeWithBruteForce churns every organization with the
// same mixed workload and checks window-query answers against a brute-force
// reference of the resulting live set.
func TestDeleteUpdateAgreeWithBruteForce(t *testing.T) {
	ds := testDataset(256)
	orgs := buildAll(t, ds, 512)
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 400, HotspotFrac: 0.5, Seed: 9})
	ws := append(ds.Windows(0.001, 15, 3), ds.Windows(0.01, 8, 4)...)
	for name, org := range orgs {
		t.Run(name, func(t *testing.T) {
			ls := newLiveSet(ds)
			applyMix(t, org, ls, ops)
			checkAgainstLiveSet(t, org, ls, ws)
		})
	}
}

// TestDeleteReturnsFalseForUnknown checks the miss paths.
func TestDeleteReturnsFalseForUnknown(t *testing.T) {
	ds := testDataset(2048)
	orgs := buildAll(t, ds, 128)
	for name, org := range orgs {
		if org.Delete(object.ID(1 << 60)) {
			t.Errorf("%s: delete of unknown object succeeded", name)
		}
		o := ds.Objects[0]
		if org.Update(object.New(object.ID(1<<60), o.Geom, 10), geom.R(0, 0, 0.1, 0.1)) {
			t.Errorf("%s: update of unknown object succeeded", name)
		}
	}
}

// TestDeletedObjectsDisappear deletes specific answers of a window and
// re-runs the query.
func TestDeletedObjectsDisappear(t *testing.T) {
	ds := testDataset(512)
	orgs := buildAll(t, ds, 256)
	w := ds.Windows(0.01, 1, 5)[0]
	for name, org := range orgs {
		before := org.WindowQuery(w, TechComplete)
		if len(before.IDs) == 0 {
			t.Fatalf("%s: empty window, pick a different seed", name)
		}
		for _, id := range before.IDs {
			if !org.Delete(id) {
				t.Fatalf("%s: delete of answer %d failed", name, id)
			}
		}
		after := org.WindowQuery(w, TechComplete)
		if len(after.IDs) != 0 {
			t.Errorf("%s: %d answers survive deletion", name, len(after.IDs))
		}
	}
}

// TestClusterUnitLifecycle walks one cluster organization through the whole
// unit life cycle — buddy growth, forced split, tombstoning, and the
// empty-unit extent free — and requires that a full delete returns all
// object storage to the allocator.
func TestClusterUnitLifecycle(t *testing.T) {
	for _, buddySizes := range []int{0, 3} {
		env := NewEnv(128)
		c := NewCluster(env, ClusterConfig{SmaxBytes: 4 * 4096, BuddySizes: buddySizes})
		rng := rand.New(rand.NewSource(4))
		var ids []object.ID
		var keys []geom.Rect
		for i := 0; i < 120; i++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			g := geom.NewPolyline([]geom.Point{p, geom.Pt(p.X+0.01, p.Y+0.01)})
			o := object.New(object.ID(i+1), g, 200+rng.Intn(600))
			c.Insert(o, o.Bounds())
			ids = append(ids, o.ID)
			keys = append(keys, o.Bounds())
		}
		c.Flush()
		if c.NumUnits() < 2 {
			t.Fatalf("buddy=%d: %d units, want a split", buddySizes, c.NumUnits())
		}

		// Tombstone a prefix and verify dead bytes show up, then delete
		// everything and verify the extents are gone.
		for _, id := range ids[:40] {
			if !c.Delete(id) {
				t.Fatalf("buddy=%d: delete %d failed", buddySizes, id)
			}
		}
		if st := c.Stats(); st.DeadBytes == 0 && st.Units == c.NumUnits() && st.Objects != 80 {
			t.Fatalf("buddy=%d: unexpected stats after partial delete: %+v", buddySizes, st)
		}
		for _, id := range ids[40:] {
			if !c.Delete(id) {
				t.Fatalf("buddy=%d: delete %d failed", buddySizes, id)
			}
		}
		st := c.Stats()
		if c.NumUnits() != 0 || st.Units != 0 {
			t.Fatalf("buddy=%d: %d units survive full delete", buddySizes, c.NumUnits())
		}
		if st.LiveBytes != 0 || st.DeadBytes != 0 || st.Objects != 0 || st.ObjectPages != 0 {
			t.Fatalf("buddy=%d: stats not empty after full delete: %+v", buddySizes, st)
		}
		// Only the tree's empty root page may remain allocated.
		if got := env.Alloc.AllocatedPages(); got != 1 {
			t.Fatalf("buddy=%d: %d pages still allocated after full delete, want 1 (empty root)", buddySizes, got)
		}
		if _, err := c.Tree().CheckInvariants(); err != nil {
			t.Fatalf("buddy=%d: %v", buddySizes, err)
		}

		// The organization stays usable: reinsert into the emptied store.
		for i, id := range ids[:10] {
			o := object.New(id, geom.NewPolyline([]geom.Point{keys[i].Center(), geom.Pt(0.5, 0.5)}), 100)
			c.Insert(o, o.Bounds())
		}
		if c.Tree().Len() != 10 {
			t.Fatalf("buddy=%d: reinsertion failed", buddySizes)
		}
	}
}

// TestClusterRepackReclaimsDeadBytes deletes enough to fragment units, then
// repacks them all and checks the dead bytes are gone and queries unchanged.
func TestClusterRepackReclaimsDeadBytes(t *testing.T) {
	ds := testDataset(256)
	env := NewEnv(256)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
	ls := newLiveSet(ds)
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	rng := rand.New(rand.NewSource(12))
	for _, o := range ds.Objects {
		if rng.Float64() < 0.4 {
			if !c.Delete(o.ID) {
				t.Fatalf("delete %d failed", o.ID)
			}
			delete(ls.objs, o.ID)
			delete(ls.mbrs, o.ID)
		}
	}
	if fr := c.Frag(); fr.DeadBytes == 0 {
		t.Fatal("no dead bytes after 40% deletion")
	}
	repacked := 0
	for _, uf := range c.UnitFrags() {
		if c.RepackUnit(uf.Leaf) {
			repacked++
		}
	}
	if repacked == 0 {
		t.Fatal("nothing repacked")
	}
	c.Flush()
	if fr := c.Frag(); fr.DeadBytes != 0 {
		t.Fatalf("%d dead bytes survive repack", fr.DeadBytes)
	}
	checkAgainstLiveSet(t, c, ls, ds.Windows(0.001, 15, 6))
}

// TestClusterRebuildRestoresClustering churns, rebuilds, and checks both
// correctness and that fragmentation is fully gone.
func TestClusterRebuildRestoresClustering(t *testing.T) {
	ds := testDataset(256)
	env := NewEnv(256)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	ls := newLiveSet(ds)
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 300, HotspotFrac: 0.7, Seed: 21})
	applyMix(t, c, ls, ops)

	allocBefore := env.Alloc.AllocatedPages()
	c.Rebuild(0)
	c.Flush()
	if fr := c.Frag(); fr.DeadBytes != 0 {
		t.Fatalf("%d dead bytes survive rebuild", fr.DeadBytes)
	}
	if got := env.Alloc.AllocatedPages(); got > allocBefore {
		t.Fatalf("rebuild grew the allocation: %d -> %d pages", allocBefore, got)
	}
	checkAgainstLiveSet(t, c, ls, ds.Windows(0.001, 15, 8))
}

// TestRebuildOnEmptyAndEmptiedStores: Rebuild must be a safe no-op on a
// fresh organization and on one whose objects were all deleted (regression:
// the surviving empty root leaf has no cluster unit and used to panic).
func TestRebuildOnEmptyAndEmptiedStores(t *testing.T) {
	ds := testDataset(2048)
	c := NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	c.Rebuild(0) // fresh
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	for _, o := range ds.Objects {
		if !c.Delete(o.ID) {
			t.Fatalf("delete %d failed", o.ID)
		}
	}
	c.Rebuild(0) // emptied
	if st := c.Stats(); st.Objects != 0 || st.Units != 0 {
		t.Fatalf("stats after empty rebuild: %+v", st)
	}
	// Still usable afterwards.
	o := ds.Objects[0]
	c.Insert(o, ds.MBRs[0])
	if got := c.WindowQuery(ds.MBRs[0], TechComplete); len(got.IDs) != 1 {
		t.Fatalf("insert after empty rebuild: %d answers", len(got.IDs))
	}
}

// TestMixedUpdatesDuringParallelQueries is the -race stress test of the
// update engine: one mutator applies a mixed workload through the write
// lock while four goroutines of window queries hammer the organization.
// Afterwards the organization must agree with the reference state.
func TestMixedUpdatesDuringParallelQueries(t *testing.T) {
	ds := testDataset(512)
	for _, cfg := range []struct {
		name  string
		build func() Organization
	}{
		{"cluster", func() Organization {
			return NewCluster(NewEnv(192), ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		}},
		{"secondary", func() Organization { return NewSecondary(NewEnv(192)) }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			org := cfg.build()
			ls := newLiveSet(ds)
			for i, o := range ds.Objects {
				org.Insert(o, ds.MBRs[i])
			}
			org.Flush()
			ops := ds.MixedWorkload(datagen.MixSpec{Ops: 250, HotspotFrac: 0.5, Seed: 31})
			ws := ds.Windows(0.001, 120, 13)

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range ops {
					switch op.Kind {
					case datagen.OpInsert:
						org.Insert(op.Obj, op.Key)
					case datagen.OpDelete:
						org.Delete(op.ID)
					case datagen.OpUpdate:
						org.Update(op.Obj, op.Key)
					case datagen.OpWindow:
						// Mutator-side queries would race the serial read
						// path; the parallel workers below cover reads.
					}
				}
			}()
			for round := 0; round < 3; round++ {
				inParallel(len(ws), 4, func(i int) { org.WindowQuery(ws[i], TechComplete) })
			}
			wg.Wait()
			org.Flush()

			// Apply the same ops to the reference (queries are no-ops).
			for _, op := range ops {
				switch op.Kind {
				case datagen.OpInsert, datagen.OpUpdate:
					ls.objs[op.Obj.ID] = op.Obj
					ls.mbrs[op.Obj.ID] = op.Key
				case datagen.OpDelete:
					delete(ls.objs, op.ID)
					delete(ls.mbrs, op.ID)
				}
			}
			checkAgainstLiveSet(t, org, ls, ws[:20])
		})
	}
}

package datagen

import (
	"reflect"
	"testing"

	"spatialcluster/internal/object"
)

// TestWorkloadDeterminism is the table-driven determinism contract of all
// workload generators: the same seed must reproduce the identical stream,
// and a different seed must not.
func TestWorkloadDeterminism(t *testing.T) {
	ds := Generate(Spec{Map: Map1, Series: SeriesA, Scale: 512, Seed: 2})
	cases := []struct {
		name string
		gen  func(seed int64) any
	}{
		{"windows", func(seed int64) any { return ds.Windows(0.001, 50, seed) }},
		{"points", func(seed int64) any { return ds.Points(50, seed) }},
		{"mixed", func(seed int64) any {
			return ds.MixedWorkload(MixSpec{Ops: 200, HotspotFrac: 0.5, Seed: seed})
		}},
		{"mixed-custom-fracs", func(seed int64) any {
			return ds.MixedWorkload(MixSpec{
				Ops: 150, InsertFrac: 1, DeleteFrac: 2, UpdateFrac: 3, QueryFrac: 1,
				HotspotFrac: 0.8, HotspotSide: 0.1, WindowArea: 0.01, Seed: seed,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.gen(7), tc.gen(7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different streams")
			}
			if c := tc.gen(8); reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical streams")
			}
		})
	}
}

// TestMixedWorkloadStreamValidity checks the structural guarantees of the op
// stream: requested length, self-consistent live tracking (no victim is
// named twice after its delete), fresh non-colliding insert IDs, and that
// every op kind occurs under the default mix.
func TestMixedWorkloadStreamValidity(t *testing.T) {
	ds := Generate(Spec{Map: Map2, Series: SeriesB, Scale: 512, Seed: 3})
	ops := ds.MixedWorkload(MixSpec{Ops: 500, HotspotFrac: 0.5, Seed: 5})
	if len(ops) != 500 {
		t.Fatalf("got %d ops, want 500", len(ops))
	}

	live := map[object.ID]bool{}
	for _, o := range ds.Objects {
		live[o.ID] = true
	}
	counts := map[OpKind]int{}
	for i, op := range ops {
		counts[op.Kind]++
		switch op.Kind {
		case OpInsert:
			if live[op.Obj.ID] {
				t.Fatalf("op %d: insert of existing ID %d", i, op.Obj.ID)
			}
			if uint64(op.Obj.ID)&insertIDBit == 0 {
				t.Fatalf("op %d: insert ID %d not tagged", i, op.Obj.ID)
			}
			if op.Obj.Size() > ds.Spec.SmaxBytes() {
				t.Fatalf("op %d: inserted object exceeds Smax", i)
			}
			live[op.Obj.ID] = true
		case OpDelete:
			if !live[op.ID] {
				t.Fatalf("op %d: delete of dead ID %d", i, op.ID)
			}
			delete(live, op.ID)
		case OpUpdate:
			if !live[op.Obj.ID] {
				t.Fatalf("op %d: update of dead ID %d", i, op.Obj.ID)
			}
			if op.Obj.Size() > ds.Spec.SmaxBytes() {
				t.Fatalf("op %d: updated object exceeds Smax", i)
			}
		case OpWindow:
			if op.Window.IsEmpty() || !DataSpace().ContainsRect(op.Window) {
				t.Fatalf("op %d: bad query window %v", i, op.Window)
			}
		default:
			t.Fatalf("op %d: unknown kind %v", i, op.Kind)
		}
	}
	for _, kind := range []OpKind{OpInsert, OpDelete, OpUpdate, OpWindow} {
		if counts[kind] == 0 {
			t.Errorf("default mix produced no %v ops", kind)
		}
	}
}

// TestMixedWorkloadHotspotSkew: with full hotspot preference the delete
// victims must concentrate inside the hotspot region (until its residents
// are exhausted), far more than under unskewed selection.
func TestMixedWorkloadHotspotSkew(t *testing.T) {
	ds := Generate(Spec{Map: Map1, Series: SeriesA, Scale: 256, Seed: 4})
	mbrOf := map[object.ID]int{}
	for i, o := range ds.Objects {
		mbrOf[o.ID] = i
	}
	inHot := func(hf float64) (hot, total int) {
		spec := MixSpec{
			Ops: 200, InsertFrac: 0, DeleteFrac: 1, UpdateFrac: 0, QueryFrac: 0,
			HotspotFrac: hf, HotspotSide: 0.3, Seed: 6,
		}
		region := ds.Hotspot(spec)
		for _, op := range ds.MixedWorkload(spec) {
			if op.Kind != OpDelete {
				continue
			}
			total++
			if region.ContainsPoint(ds.MBRs[mbrOf[op.ID]].Center()) {
				hot++
			}
		}
		return hot, total
	}
	skewHot, skewTotal := inHot(1)
	unifHot, unifTotal := inHot(0)
	if skewTotal == 0 || unifTotal == 0 {
		t.Fatal("no deletes generated")
	}
	if skewHot <= unifHot {
		t.Errorf("hotspot victims: skewed %d/%d vs uniform %d/%d — no concentration",
			skewHot, skewTotal, unifHot, unifTotal)
	}
}

// TestMixedWorkloadExhaustionFallsBackToInserts: a pure-delete mix whose op
// count exceeds the object count must terminate with exactly the requested
// ops, degrading to inserts once the live set is empty (regression: this
// used to loop forever).
func TestMixedWorkloadExhaustionFallsBackToInserts(t *testing.T) {
	ds := Generate(Spec{Map: Map1, Series: SeriesA, Scale: 4096, Seed: 2}) // ~32 objects
	n := len(ds.Objects)
	ops := ds.MixedWorkload(MixSpec{Ops: 3 * n, DeleteFrac: 1, Seed: 3})
	if len(ops) != 3*n {
		t.Fatalf("got %d ops, want %d", len(ops), 3*n)
	}
	inserts := 0
	for _, op := range ops {
		if op.Kind == OpInsert {
			inserts++
		}
	}
	if inserts == 0 {
		t.Fatal("no insert fallbacks in an exhausting pure-delete stream")
	}
}

// TestOpKindString pins the enum labels used in reports.
func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{OpInsert: "insert", OpDelete: "delete", OpUpdate: "update", OpWindow: "window",
		OpPoint: "point", OpKNN: "knn"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Errorf("unknown kind formats as %q", OpKind(99).String())
	}
}

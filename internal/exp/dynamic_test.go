package exp

import (
	"testing"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// TestDynamicBenchSmoke checks the preset run of the dynamic benchmark for
// the result that the full benchmark claims: query cost degrades under
// churn without reclustering and the threshold policy recovers it.
func TestDynamicBenchSmoke(t *testing.T) {
	r := preset(t, "dynamic").(dynamicResult)

	if len(r.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != r.Batches+1 {
			t.Fatalf("%s/%s: %d points, want %d", s.Org, s.Policy, len(s.Points), r.Batches+1)
		}
		for _, p := range s.Points[1:] {
			if p.MSPer4KB <= 0 {
				t.Errorf("%s/%s: non-positive ms/4KB %v", s.Org, s.Policy, p.MSPer4KB)
			}
		}
	}
	if !r.Degrades {
		t.Error("cluster organization did not degrade under churn")
	}
	if !r.Recovers {
		t.Error("threshold reclustering did not recover the query cost")
	}
}

// TestApplyOpsNeverMisses applies a generated stream to the organization it
// was generated for: every delete/update victim must exist.
func TestApplyOpsNeverMisses(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesA, Scale: 128, Seed: 5})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 600, HotspotFrac: 0.6, Seed: 11})
	for _, kind := range allOrgs {
		b := build(kind, ds, spatialcluster.StoreConfig{BufferPages: 64})
		res := ApplyOps(b.Org, ops, store.TechComplete)
		if res.Missing != 0 {
			t.Errorf("%s: %d missing victims", kind, res.Missing)
		}
		if res.Inserts+res.Deletes+res.Updates+res.Queries != len(ops) {
			t.Errorf("%s: op counts %+v do not sum to %d", kind, res, len(ops))
		}
	}
}

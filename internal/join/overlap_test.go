package join

import (
	"testing"

	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
)

// TestOverlapDeterministic is the contract of the pooled join's pipelined
// dispatcher: for every organization kind and worker count, a run returns a
// Result identical in every field — cardinalities AND modelled costs — to
// the serialized single-worker run, because PrepareFetch stays on the
// dispatcher in plane order.
func TestOverlapDeterministic(t *testing.T) {
	dsR, dsS := testSets(512, 2)
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		orgR := buildOrg(kind, dsR)
		orgS := buildOrg(kind, dsS)
		base := Run(orgR, orgS, Config{
			BufferPages: 400, Technique: store.TechSLM, Workers: 1,
		})
		if base.MBRPairs == 0 {
			t.Fatalf("%s: no candidate pairs", kind)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			orgR := buildOrg(kind, dsR)
			orgS := buildOrg(kind, dsS)
			res := Run(orgR, orgS, Config{
				BufferPages: 400, Technique: store.TechSLM, Workers: workers,
			})
			if res != base {
				t.Fatalf("%s workers=%d:\n got %+v\nwant %+v", kind, workers, res, base)
			}
		}
	}
}

// TestOverlapTechniquesDeterministic covers every cluster read technique
// under buffer pressure — worker counts 1, 2 and 8 — and SkipExactTest
// (where no pool runs at all).
func TestOverlapTechniquesDeterministic(t *testing.T) {
	dsR, dsS := testSets(512, 2)
	for _, tech := range []store.Technique{store.TechComplete, store.TechThreshold, store.TechSLM,
		store.TechSLMVector, store.TechPageByPage} {
		for _, skip := range []bool{false, true} {
			var base Result
			for i, workers := range []int{1, 2, 8} {
				orgR := buildOrg("cluster", dsR)
				orgS := buildOrg("cluster", dsS)
				res := Run(orgR, orgS, Config{
					BufferPages: 100, Technique: tech,
					Workers: workers, SkipExactTest: skip,
				})
				if i == 0 {
					base = res
					continue
				}
				if res != base {
					t.Fatalf("%v skip=%v workers=%d:\n got %+v\nwant %+v",
						tech, skip, workers, res, base)
				}
			}
		}
	}
}

// TestOverlapStages checks the stage clocks of a pooled run: the serialized
// stages are populated and refinement lands on the workers.
func TestOverlapStages(t *testing.T) {
	dsR, dsS := testSets(256, 2)
	orgR := buildOrg("cluster", dsR)
	orgS := buildOrg("cluster", dsS)
	var st obs.JoinStages
	res := Run(orgR, orgS, Config{
		BufferPages: 400, Technique: store.TechSLM,
		Workers: 4, Stages: &st,
	})
	if res.ExactTests == 0 {
		t.Fatal("no exact tests ran")
	}
	if st.MBRJoinNS.Load() <= 0 || st.PrepareNS.Load() <= 0 {
		t.Fatalf("serialized stage clocks empty: mbr=%d prepare=%d",
			st.MBRJoinNS.Load(), st.PrepareNS.Load())
	}
	if st.RefineNS.Load() <= 0 {
		t.Fatal("refinement busy time not attributed to workers")
	}
}

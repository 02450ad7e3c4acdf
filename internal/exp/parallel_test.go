package exp

import "testing"

// TestParallelBenchSmoke runs a miniature worker sweep and checks its
// structure: one join row and one window row per organization × worker
// count, invariant modelled cost, and stage clocks that actually ran.
func TestParallelBenchSmoke(t *testing.T) {
	o := Options{Scale: 512, Queries: 24, Seed: 7}
	workers := []int{1, 2, 2} // the repeat must be dropped
	r := ParallelBench(o, workers)

	if f := r.Failed(); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	if len(r.JoinRuns) != len(AllOrgs)*2 || len(r.QueryRuns) != len(AllOrgs)*2 {
		t.Fatalf("%d join rows, %d window rows", len(r.JoinRuns), len(r.QueryRuns))
	}
	for _, run := range r.JoinRuns {
		if run.ResultPairs == 0 || run.ModelIOSec <= 0 || run.WallSec <= 0 || run.WallSpeedup <= 0 {
			t.Fatalf("implausible join row %+v", run)
		}
		if run.WallPrepareSec <= 0 || run.WallRefineSec <= 0 {
			t.Fatalf("join row %s/%d: stage clocks empty: %+v", run.Org, run.Workers, run)
		}
		if run.Workers == 1 && run.WallStallSec != 0 {
			t.Fatalf("join row %s/1 reports dispatcher stall", run.Org)
		}
	}
	for _, run := range r.QueryRuns {
		if run.Queries != o.Queries || run.Answers == 0 || run.ModelIOSec <= 0 {
			t.Fatalf("implausible window row %+v", run)
		}
		if run.WallSec <= 0 || run.WallExecSec <= 0 || run.WallSpeedup <= 0 {
			t.Fatalf("window row %s/%d: no wall clock: %+v", run.Org, run.Workers, run)
		}
	}
	if r.WallSerializationPoint == "" {
		t.Fatal("no serialization point named")
	}
}

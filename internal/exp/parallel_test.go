package exp

import (
	"slices"
	"testing"
)

// TestParallelBenchSmoke checks the structure of the preset worker sweep: one
// join row and one window row per organization × distinct worker count,
// invariant modelled cost, and stage clocks that actually ran.
func TestParallelBenchSmoke(t *testing.T) {
	if got := distinct([]int{1, 2, 2, 1}); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("distinct kept repeats: %v", got) // a repeated count must be dropped
	}
	r := preset(t, "parallel").(parallelResult)

	if f := r.Failed(); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	if len(r.JoinRuns) != len(allOrgs)*2 || len(r.QueryRuns) != len(allOrgs)*2 {
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
		if run.Queries != presetOptions.Queries || run.Answers == 0 || run.ModelIOSec <= 0 {
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

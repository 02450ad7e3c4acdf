package exp

import (
	"testing"
)

// TestShardBenchSmoke checks the structure of the sharding benchmark's preset
// run: router answers agree with the single reference
// store at every shard count (fresh, and after the routed churn in every
// mode), and every wall run reports the deterministic post-churn answer
// total. (Determinism across runs is the registry test's.)
func TestShardBenchSmoke(t *testing.T) {
	r := preset(t, "shard").(shardResult)

	if !r.Agree {
		t.Fatal("router answers differ from the single reference store")
	}
	if len(r.Model) != len(r.Counts) || len(r.Runs) != len(r.Counts)*len(shardModes) {
		t.Fatalf("%d model rows, %d runs for %d shard counts", len(r.Model), len(r.Runs), len(r.Counts))
	}
	if r.FreshAnswers == 0 || r.ChurnAnswers == 0 {
		t.Fatalf("reference answered nothing: fresh %d, churned %d", r.FreshAnswers, r.ChurnAnswers)
	}
	for i, m := range r.Model {
		if m.Shards != r.Counts[i] || m.Objects == 0 {
			t.Fatalf("implausible model row %+v", m)
		}
		if m.MinShardObjects > m.MaxShardObjects || m.MaxShardObjects > m.Objects {
			t.Fatalf("partition balance broken: %+v", m)
		}
		if m.Shards == 1 && m.MeanFanout != 1 {
			t.Fatalf("one shard fans out to %g shards", m.MeanFanout)
		}
		if m.MeanFanout > float64(m.Shards) {
			t.Fatalf("fanout %g exceeds shard count %d", m.MeanFanout, m.Shards)
		}
	}
	for i, run := range r.Runs {
		if run.Shards != r.Counts[i/len(shardModes)] || run.Mode != shardModes[i%len(shardModes)].name {
			t.Fatalf("run %d is %d/%s", i, run.Shards, run.Mode)
		}
		if run.Errors != 0 {
			t.Fatalf("run %+v reports %d errors", run, run.Errors)
		}
		// The wall sweep runs after the churn: the deterministic answer
		// total is the reference's churned one, at every shard count and in
		// every mode.
		if run.Answers != r.ChurnAnswers {
			t.Fatalf("run n=%d %s answers %d, reference churned total %d",
				run.Shards, run.Mode, run.Answers, r.ChurnAnswers)
		}
		if run.WallQPS <= 0 || run.WallEfficiencyX <= 0 {
			t.Fatalf("run n=%d %s measured no throughput: %+v", run.Shards, run.Mode, run)
		}
	}
	if r.WallTraceOverheadX <= 0 {
		t.Fatal("no tracing overhead figure")
	}
}

package exp

import (
	"testing"
)

// TestShardBenchSmoke checks the structure of the sharding benchmark's preset
// run: router answers agree with the single reference store at every shard
// count (fresh, and after the routed churn, plain and traced), and every
// partition row is plausible. (Determinism across runs is the registry
// test's.)
func TestShardBenchSmoke(t *testing.T) {
	r := preset(t, "shard").(shardResult)

	if !r.Agree {
		t.Fatal("router answers differ from the single reference store")
	}
	if len(r.Model) != len(r.Counts) {
		t.Fatalf("%d model rows for %d shard counts", len(r.Model), len(r.Counts))
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
}

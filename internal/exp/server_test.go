package exp

import (
	"testing"
)

// TestServerBenchSmoke checks the structure of the serving benchmark's preset
// run: HTTP answers agree with in-process execution, plain and traced, every
// organization has a plausible modelled reference row, and both admission
// policies served the same answers from different hit counts. (Determinism
// across runs is the registry test's.)
func TestServerBenchSmoke(t *testing.T) {
	r := preset(t, "server").(serverResult)

	if f := r.Failed(); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	if len(r.Model) != len(allOrgs) {
		t.Fatalf("%d model rows, want %d", len(r.Model), len(allOrgs))
	}
	for _, m := range r.Model {
		if m.Requests != r.Requests || m.Answers == 0 || m.ModelIOSec <= 0 {
			t.Fatalf("implausible model row %+v", m)
		}
	}

	if len(r.Admission) != 2 {
		t.Fatalf("%d admission runs, want 2", len(r.Admission))
	}
	lru, q2 := r.Admission[0], r.Admission[1]
	if lru.Policy != "lru" || q2.Policy != "2q" || lru.Answers != q2.Answers || lru.Ops != q2.Ops {
		t.Fatalf("admission rows disagree on the workload: %+v vs %+v", lru, q2)
	}
	for _, run := range r.Admission {
		if run.Hits == 0 || run.Misses == 0 || run.Answers == 0 {
			t.Fatalf("implausible admission run %+v", run)
		}
	}
}

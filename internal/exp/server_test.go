package exp

import (
	"testing"
)

// TestServerBenchSmoke checks the structure of the serving benchmark's preset
// run: HTTP answers agree with in-process execution in
// every wire form, every arm reports the same deterministic answer count as
// the modelled reference, and both admission policies served the same
// answers from different hit counts. (Determinism across runs is the
// registry test's.)
func TestServerBenchSmoke(t *testing.T) {
	r := preset(t, "server").(serverResult)

	if f := r.Failed(); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	if len(r.Model) != len(allOrgs) {
		t.Fatalf("%d model rows, want %d", len(r.Model), len(allOrgs))
	}
	// serial+batched sweeps plus one traced and one open arm
	wantRuns := len(allOrgs) * (2*len(r.Clients) + 2)
	if len(r.Runs) != wantRuns {
		t.Fatalf("%d runs, want %d", len(r.Runs), wantRuns)
	}
	answersByOrg := map[string]int{}
	for _, m := range r.Model {
		if m.Requests != r.Requests || m.Answers == 0 || m.ModelIOSec <= 0 {
			t.Fatalf("implausible model row %+v", m)
		}
		answersByOrg[m.Org] = m.Answers
	}
	modes := map[string]int{}
	for _, run := range r.Runs {
		modes[run.Mode]++
		if run.Errors != 0 {
			t.Fatalf("run %+v reports %d errors", run, run.Errors)
		}
		if run.Answers != answersByOrg[run.Org] {
			t.Fatalf("run %s/%s/%d answers %d, model says %d",
				run.Org, run.Mode, run.Clients, run.Answers, answersByOrg[run.Org])
		}
		if run.WallQPS <= 0 {
			t.Fatalf("run %s/%s/%d measured no throughput", run.Org, run.Mode, run.Clients)
		}
		if run.Mode == "serial" && run.WallMeanBatch > 1 {
			t.Fatalf("serial run batched %g queries per batch", run.WallMeanBatch)
		}
	}
	for _, mode := range []string{"traced", "open"} {
		if modes[mode] != len(allOrgs) {
			t.Fatalf("%d %s runs, want one per organization", modes[mode], mode)
		}
	}
	if r.WallTraceOverheadX <= 0 {
		t.Fatalf("no tracing ratio: %g", r.WallTraceOverheadX)
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

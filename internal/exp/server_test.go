package exp

import (
	"testing"
)

// TestServerBenchSmoke runs a miniature serving benchmark end to end and
// checks its structure: HTTP answers agree with in-process execution in
// every wire form, every arm reports the same deterministic answer count as
// the modelled reference, and both admission policies served the same
// answers from different hit counts. (Determinism across runs is the
// registry test's.)
func TestServerBenchSmoke(t *testing.T) {
	o := Options{Scale: 1024, Seed: 7}
	cfg := ServerConfig{
		Clients:           []int{1, 4},
		Requests:          40,
		Throttle:          0.001,
		AdmissionOps:      200,
		AdmissionBufPages: 48,
	}
	r := ServerBench(o, cfg)

	if f := r.Failed(); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	if len(r.Model) != len(AllOrgs) {
		t.Fatalf("%d model rows, want %d", len(r.Model), len(AllOrgs))
	}
	// serial+batched sweeps plus one traced and one open arm
	wantRuns := len(AllOrgs) * (2*len(cfg.Clients) + 2)
	if len(r.Runs) != wantRuns {
		t.Fatalf("%d runs, want %d", len(r.Runs), wantRuns)
	}
	answersByOrg := map[string]int{}
	for _, m := range r.Model {
		if m.Requests != cfg.Requests || m.Answers == 0 || m.ModelIOSec <= 0 {
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
		if modes[mode] != len(AllOrgs) {
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

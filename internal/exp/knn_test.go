package exp

import (
	"testing"
)

// TestKNNBenchAgreesAndCovers: the preset run of the benchmark must measure
// every organization at every k in both phases, find at least one answer,
// and report answer-set agreement across organizations — the acceptance
// criterion of the k-NN engine.
func TestKNNBenchAgreesAndCovers(t *testing.T) {
	r := preset(t, "knn").(knnResult)

	if !r.AgreeFresh || !r.AgreeChurn {
		t.Fatalf("organizations disagree: fresh=%v churn=%v", r.AgreeFresh, r.AgreeChurn)
	}
	wantRuns := len(allOrgs) * 2 * len(r.Ks)
	if len(r.Runs) != wantRuns {
		t.Fatalf("%d runs, want %d", len(r.Runs), wantRuns)
	}
	for _, run := range r.Runs {
		if run.Queries != r.Queries {
			t.Fatalf("%s %s k=%d: %d queries, want %d", run.Org, run.Phase, run.K, run.Queries, r.Queries)
		}
		if run.K >= 1 && run.Answers != run.Queries*run.K {
			// Every query must find exactly k answers while the store holds
			// more than k objects (it does at this scale).
			t.Fatalf("%s %s k=%d: %d answers, want %d", run.Org, run.Phase, run.K, run.Answers, run.Queries*run.K)
		}
		if run.IOSec <= 0 || run.Candidates < run.Answers {
			t.Fatalf("%s %s k=%d: implausible tallies %+v", run.Org, run.Phase, run.K, run)
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

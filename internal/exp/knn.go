package exp

import (
	"fmt"
	"strings"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// knnRun is one measurement: one organization, one phase, one k, the full
// query set run cold. All fields are modelled, so repeated runs are
// byte-identical.
type knnRun struct {
	Org            string  `json:"org"`
	Phase          string  `json:"phase"` // "fresh" or "churn"
	K              int     `json:"k"`
	Queries        int     `json:"queries"`
	Answers        int     `json:"answers"`
	Candidates     int     `json:"candidates"`
	CandidateBytes int64   `json:"candidate_bytes"`
	IOSec          float64 `json:"io_sec"`       // total modelled I/O of the batch
	MSPerQuery     float64 `json:"ms_per_query"` // IOSec normalized per query
}

// knnResult is the outcome of the k-NN benchmark, emitted as BENCH_knn.json.
// It is deterministic in (Scale, Queries, Seed, config).
type knnResult struct {
	Scale    int      `json:"scale"`
	Queries  int      `json:"queries"`
	Seed     int64    `json:"seed"`
	Ks       []int    `json:"ks"`
	ChurnOps int      `json:"churn_ops"`
	Runs     []knnRun `json:"runs"`

	// AgreeFresh / AgreeChurn: the per-query answer lists (IDs in rank
	// order) were identical across all three organizations in the given
	// phase — the paper's organizations are physical layouts of one
	// logical relation, so any disagreement is a bug.
	AgreeFresh bool `json:"agree_fresh"`
	AgreeChurn bool `json:"agree_churn"`
}

// Failed implements result.
func (r knnResult) Failed() []string {
	return failed(verdict{"agree_fresh", r.AgreeFresh}, verdict{"agree_churn", r.AgreeChurn})
}

// knnPhases are the two measurement phases of every organization.
var knnPhases = [2]string{"fresh", "churn"}

// knnBench measures distance browsing across the three organizations: for
// each org the full query-point set is run cold at every k, on the freshly
// built store and again after a deterministic mixed-workload churn. The k-NN
// query is the most selective workload there is (section 5.5): the cluster
// organization must read per-page rather than per-unit or it drags whole
// cluster units for single objects — this benchmark makes that behaviour,
// and the organizations' relative standing under it, measurable. The
// neighbor counts run from maximally selective to a whole data page's worth
// of answers; the churn is a tenth of the dataset (300 ops at the smoke
// preset).
func knnBench(o Options, smoke bool, _ []int) result {
	o = o.WithDefaults()
	churnOps := 0
	if smoke {
		o = o.smoke(30)
		churnOps = 300
	}
	ks := []int{1, 10, 100}
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed,
	})
	if churnOps == 0 {
		churnOps = max(len(ds.Objects)/10, 10)
	}
	pts := ds.Points(o.Queries, o.Seed+3)
	ops := ds.MixedWorkload(datagen.MixSpec{
		Ops: churnOps, HotspotFrac: 0.5, Seed: o.Seed + 1,
	})

	res := knnResult{
		Scale:      o.Scale,
		Queries:    o.Queries,
		Seed:       o.Seed,
		Ks:         ks,
		ChurnOps:   churnOps,
		AgreeFresh: true,
		AgreeChurn: true,
	}

	// reference[phase][k] holds the first organization's per-query answer
	// lists; later organizations are compared against it.
	reference := make(map[string]map[int][][]object.ID)
	for _, phase := range knnPhases {
		reference[phase] = make(map[int][][]object.ID)
	}

	for oi, kind := range allOrgs {
		b := build(kind, ds, o.storeConfig())
		org := b.Org
		params := org.Env().Params()
		o.Progress("knn: built %s (scale %d)", kind, o.Scale)

		for _, phase := range knnPhases {
			if phase == "churn" {
				ar := ApplyOps(org, ops, store.TechComplete)
				org.Flush()
				o.Progress("knn: %s churned with %d ops (%d inserts, %d deletes, %d updates)",
					kind, len(ops), ar.Inserts, ar.Deletes, ar.Updates)
			}
			for _, k := range ks {
				run := knnRun{Org: string(kind), Phase: phase, K: k, Queries: len(pts)}
				answers := make([][]object.ID, len(pts))
				for i, pt := range pts {
					CoolObjectPages(org)
					r := org.NearestQuery(pt, k)
					run.Answers += len(r.IDs)
					run.Candidates += r.Candidates
					run.CandidateBytes += r.CandidateBytes
					run.IOSec += r.Cost.TimeSec(params)
					answers[i] = r.IDs
				}
				if run.Queries > 0 {
					run.MSPerQuery = run.IOSec * 1000 / float64(run.Queries)
				}
				res.Runs = append(res.Runs, run)
				o.Progress("knn: %s %s k=%d %.2f ms/query", kind, phase, k, run.MSPerQuery)

				if oi == 0 {
					reference[phase][k] = answers
				} else if !answerListsEqual(reference[phase][k], answers) {
					if phase == "fresh" {
						res.AgreeFresh = false
					} else {
						res.AgreeChurn = false
					}
				}
			}
		}
	}
	return res
}

// answerListsEqual compares per-query ordered answer lists.
func answerListsEqual(a, b [][]object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Render formats the result as a text report.
func (r knnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k-NN distance browsing benchmark (scale=%d, %d queries, churn=%d ops)\n",
		r.Scale, r.Queries, r.ChurnOps)
	for _, phase := range knnPhases {
		fmt.Fprintf(&b, "\n%s:\n", phase)
		fmt.Fprintf(&b, "  %-22s %6s %10s %12s %12s %12s\n",
			"organization", "k", "answers", "candidates", "ms/query", "total I/O s")
		for _, run := range r.Runs {
			if run.Phase != phase {
				continue
			}
			fmt.Fprintf(&b, "  %-22s %6d %10d %12d %12.2f %12.1f\n",
				run.Org, run.K, run.Answers, run.Candidates, run.MSPerQuery, run.IOSec)
		}
	}
	fmt.Fprintf(&b, "\nanswer sets identical across organizations (fresh): %v\n", r.AgreeFresh)
	fmt.Fprintf(&b, "answer sets identical across organizations (churn): %v\n", r.AgreeChurn)
	return b.String()
}

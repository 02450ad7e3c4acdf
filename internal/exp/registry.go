package exp

import (
	"encoding/json"
	"fmt"
	"os"
)

// result is what every experiment returns: a text report and the names of
// the gating verdicts that came out false. A gating verdict is a correctness
// invariant (answers agree, modelled cost is invariant); wall-clock ratios
// are observations, shown by Render and never returned by Failed. An engine
// benchmark's result is also the JSON document WriteJSON writes.
type result interface {
	Render() string
	Failed() []string
}

// Experiment is one entry of the registry: what clusterbench, CI and the
// determinism test know about an experiment.
type Experiment struct {
	Name string
	// Alias is a second name selecting the same run (fig6 shares fig5's
	// builds).
	Alias string
	// Artifact is the default path of the JSON the result is written to.
	// Empty for the paper's tables and figures, which write nothing.
	Artifact string
	// Sweep names the int-list flag that sets the experiment's swept axis:
	// "workers", "clients", "shards", or empty when it has none.
	Sweep string
	// Run executes the experiment. smoke selects the CI-sized preset kept
	// beside the experiment's defaults; a nil sweep keeps the default axis.
	Run func(o Options, smoke bool, sweep []int) result
}

// The two group names -exp accepts next to experiment names.
const (
	GroupFigures = "all"     // the paper's tables and figures
	GroupBenches = "benches" // every experiment that writes an artifact
)

// figure adapts a paper table or figure — a report with nothing to gate —
// to result.
type figure struct{ report interface{ Render() string } }

func (f figure) Render() string { return f.report.Render() }
func (figure) Failed() []string { return nil }

// paper registers the driver of a paper table or figure, which takes
// neither a smoke preset nor a sweep.
func paper[R interface{ Render() string }](name string, driver func(Options) R) Experiment {
	return Experiment{Name: name, Run: func(o Options, _ bool, _ []int) result { return figure{driver(o)} }}
}

// Experiments lists every experiment in the order clusterbench runs them:
// the paper's evaluation first, then the engine benchmarks. It is the
// package's API: everything else is reached through an entry's Run.
func Experiments() []Experiment {
	fig56 := paper("fig5", fig5And6)
	fig56.Alias = "fig6"
	return []Experiment{
		paper("table1", table1),
		fig56,
		paper("fig7", fig7),
		paper("fig8", fig8),
		paper("fig10", fig10),
		paper("fig11", fig11),
		paper("fig12", fig12),
		paper("fig14", fig14),
		paper("fig16", fig16),
		paper("fig17", fig17),
		{Name: "parallel", Artifact: "BENCH_parallel.json", Sweep: "workers", Run: parallelBench},
		{Name: "dynamic", Artifact: "BENCH_dynamic.json", Run: dynamicBench},
		{Name: "knn", Artifact: "BENCH_knn.json", Run: knnBench},
		{Name: "backend", Artifact: "BENCH_backend.json", Run: backendBench},
		{Name: "server", Artifact: "BENCH_server.json", Sweep: "clients", Run: serverBench},
		{Name: "shard", Artifact: "BENCH_shard.json", Sweep: "shards", Run: shardBench},
		{Name: "recovery", Artifact: "BENCH_recovery.json", Run: recoveryBench},
	}
}

// Select resolves -exp names (experiment names, aliases and the two groups)
// to registry entries, in registry order and without repeats. An unknown
// name is an error, not a silent no-op.
func Select(names []string) ([]Experiment, error) {
	all := Experiments()
	want := make(map[string]bool, len(names))
	for _, name := range names {
		known := name == GroupFigures || name == GroupBenches
		for _, e := range all {
			known = known || name == e.Name || (e.Alias != "" && name == e.Alias)
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		want[name] = true
	}
	var sel []Experiment
	for _, e := range all {
		group := GroupFigures
		if e.Artifact != "" {
			group = GroupBenches
		}
		if want[e.Name] || (e.Alias != "" && want[e.Alias]) || want[group] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// WriteJSON writes v, indented, to path — the one writer of every
// BENCH_*.json.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verdict is one named gating verdict of a result.
type verdict struct {
	name string
	ok   bool
}

// failed returns the names of the verdicts that are false, in order.
func failed(vs ...verdict) []string {
	var out []string
	for _, v := range vs {
		if !v.ok {
			out = append(out, v.name)
		}
	}
	return out
}

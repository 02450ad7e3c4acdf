package exp

import (
	"encoding/json"
	"fmt"
	"os"
)

// Result is what every experiment returns: a text report and the names of
// the gating verdicts that came out false. A gating verdict is a correctness
// invariant (answers agree, modelled cost is invariant); wall-clock ratios
// are observations, shown by Render and never returned by Failed.
type Result interface {
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
	Run func(o Options, smoke bool, sweep []int) Result
}

// The two group names -exp accepts next to experiment names.
const (
	GroupFigures = "all"     // the paper's tables and figures
	GroupBenches = "benches" // every experiment that writes an artifact
)

// figure adapts a paper table or figure — a report with nothing to gate —
// to Result.
type figure func() string

func (f figure) Render() string { return f() }
func (figure) Failed() []string { return nil }

// Experiments lists every experiment in the order clusterbench runs them:
// the paper's evaluation first, then the engine benchmarks.
func Experiments() []Experiment {
	fig := func(name string, render func(Options) string) Experiment {
		return Experiment{Name: name, Run: func(o Options, _ bool, _ []int) Result {
			return figure(func() string { return render(o) })
		}}
	}
	fig56 := fig("fig5", func(o Options) string { return Fig5And6(o).Render() })
	fig56.Alias = "fig6"
	return []Experiment{
		fig("table1", func(o Options) string { return Table1(o).Render() }),
		fig56,
		fig("fig7", func(o Options) string { return Fig7(o).Render() }),
		fig("fig8", func(o Options) string { return Fig8(o).Render() }),
		fig("fig10", func(o Options) string { return Fig10(o).Render() }),
		fig("fig11", func(o Options) string { return Fig11(o).Render() }),
		fig("fig12", func(o Options) string { return Fig12(o).Render() }),
		fig("fig14", func(o Options) string { return Fig14(o).Render() }),
		fig("fig16", func(o Options) string { return Fig16(o).Render() }),
		fig("fig17", func(o Options) string { return Fig17(o).Render() }),
		{Name: "parallel", Artifact: "BENCH_parallel.json", Sweep: "workers", Run: runParallel},
		{Name: "dynamic", Artifact: "BENCH_dynamic.json", Run: runDynamic},
		{Name: "knn", Artifact: "BENCH_knn.json", Run: runKNN},
		{Name: "backend", Artifact: "BENCH_backend.json", Run: runBackend},
		{Name: "server", Artifact: "BENCH_server.json", Sweep: "clients", Run: runServer},
		{Name: "shard", Artifact: "BENCH_shard.json", Sweep: "shards", Run: runShard},
		{Name: "recovery", Artifact: "BENCH_recovery.json", Run: runRecovery},
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

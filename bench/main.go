// Command bench is the repository's benchmark: four workloads of the served
// spatial engine, nine end-to-end metrics on each, and a per-layer ledger
// measured from outside through the layers' public functions. README.md
// defines every workload and metric; BENCHMARK.json declares them to the
// driver.
//
//	go run . -workload served_read -seed 1            one run, end-to-end metrics
//	go run . -workload served_read -seed 1 -trace 1   per-layer metrics, ladder, spans
//	go run . -aa 5                                    A/A noise check against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; progress goes to standard error
// and the full report to <out>/<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// secondsPerRound converts -seconds into a number of rounds. A round is a
// fixed number of operations, not a fixed time (so that per-operation counts
// do not depend on the machine's speed), sized to last about this long on
// the reference machine.
const secondsPerRound = 2

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf selects the metrics the driver asked for: the end-to-end ones of
// an untraced run, the per-layer ones of a traced run.
func resultOf(rep *report, trace bool) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricValue)}
	defs, values := endToEnd, rep.EndToEnd
	if trace {
		defs, values = perLayer, rep.PerLayer
	}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: engine_read, served_read, served_write or cluster_scatter")
		seed     = flag.Int64("seed", 1, "seed of the operation stream")
		seconds  = flag.Int("seconds", 14, "length of the timed phase: one round of fixed size per 2 seconds, at least 3 rounds")
		trace    = flag.Int("trace", 0, "1: run the traced pass after the timed rounds and report the per-layer metrics")
		out      = flag.String("out", "out", "directory for reports, span files and temporary files")
		smoke    = flag.Bool("smoke", false, "a seconds-long run on a small data set (for tests; its numbers mean nothing)")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N full runs of every workload and compare them with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *aa > 0 {
		if err := runAA(*aa, *seconds, *out); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{workload: *workload, seed: *seed, rounds: max(3, *seconds/secondsPerRound),
		trace: *trace != 0, outDir: *out, sz: fullSizes}
	if *smoke {
		cfg.sz, cfg.rounds = smokeSizes, 2
	}
	if cfg.trace {
		// The traced pass takes the time of several rounds; the per-layer
		// metrics that come from the timed rounds are counts, which three
		// rounds settle.
		cfg.rounds = min(cfg.rounds, 3)
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeReport(rep, cfg.outDir); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(resultOf(rep, cfg.trace))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed: %s\n", rep.Failed, rep.Attempted, rep.FirstErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// writeReport writes the full report next to the span file.
func writeReport(rep *report, dir string) error {
	for name, v := range rep.PerLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".json"), append(data, '\n'), 0o644)
}

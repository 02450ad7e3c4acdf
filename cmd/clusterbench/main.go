// Command clusterbench regenerates the tables and figures of the paper's
// evaluation (Brinkhoff & Kriegel, VLDB 1994) and runs the repo's own engine
// benchmarks. Both live in one registry (exp.Experiments); this command
// loops over it.
//
// Usage:
//
//	clusterbench -exp all                        # every table and figure
//	clusterbench -exp fig8 -scale 8 -v           # one figure, verbose progress
//	clusterbench -exp table1,fig12 -scale 16 -queries 200
//	clusterbench -exp parallel -workers 1,2,4,8  # one engine benchmark → BENCH_parallel.json
//	clusterbench -exp benches -smoke             # every engine benchmark, CI-sized
//
// What each engine benchmark sweeps, the artifact it writes and its schema
// are in docs/BENCHMARKS.md; an axis without a flag (the churn schedule of
// -exp dynamic, the k of -exp knn) is a constant of its experiment. A false gating verdict exits 1 and names the
// verdict; flag misuse exits 2.
//
// Scale 1 is the paper's full data size (131,461 + 128,971 objects); the
// default 8 keeps the full pipeline minutes-fast while preserving the
// relative effects. Join buffer sizes are divided by √scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"spatialcluster/internal/exp"
)

func main() {
	// The swept axis of an engine benchmark is an int list; the flag that
	// sets it is named by the experiment's Sweep.
	var names []string
	sweeps := map[string]*string{}
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
		if e.Alias != "" {
			names = append(names, e.Alias)
		}
		if e.Sweep != "" && sweeps[e.Sweep] == nil {
			sweeps[e.Sweep] = flag.String(e.Sweep, "", "comma-separated counts: the "+e.Sweep+" swept by -exp "+e.Name+" (default: see docs/BENCHMARKS.md)")
		}
	}
	var (
		expFlag = flag.String("exp", exp.GroupFigures, "comma-separated experiments: "+strings.Join(names, ",")+
			"; '"+exp.GroupFigures+"' is every table and figure of the paper, '"+exp.GroupBenches+
			"' every engine benchmark (the ones that write a BENCH_*.json)")
		scale   = flag.Int("scale", 8, "divide the paper's object counts by this factor (1 = full size)")
		queries = flag.Int("queries", 678, "queries per window size (paper: 678)")
		seed    = flag.Int64("seed", 0, "generation seed")
		smoke   = flag.Bool("smoke", false, "shrink every engine benchmark to its CI-sized preset (seconds; see docs/BENCHMARKS.md)")
		jsonOut = flag.String("json", "", "output path for an engine benchmark's JSON (default: its BENCH_*.json, see docs/BENCHMARKS.md; empty or '-' disables)")
		verbose = flag.Bool("v", false, "print per-step progress to stderr")
	)
	flag.Parse()
	jsonSet := false
	flag.Visit(func(f *flag.Flag) { jsonSet = jsonSet || f.Name == "json" })
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "clusterbench: "+format+"\n", args...)
		os.Exit(2)
	}

	var want []string
	for _, name := range strings.Split(*expFlag, ",") {
		if name = strings.TrimSpace(strings.ToLower(name)); name != "" {
			want = append(want, name)
		}
	}
	selected, err := exp.Select(want)
	if err != nil {
		usage("%v", err)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "clusterbench: no experiment matched %q\n", *expFlag)
		flag.Usage()
		os.Exit(2)
	}

	sweep := map[string][]int{}
	var writers []string
	for _, e := range selected {
		if e.Artifact != "" {
			writers = append(writers, e.Name)
		}
		if e.Sweep == "" || sweep[e.Sweep] != nil {
			continue
		}
		for _, s := range strings.Split(*sweeps[e.Sweep], ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				usage("bad -%s entry %q", e.Sweep, s)
			}
			sweep[e.Sweep] = append(sweep[e.Sweep], n)
		}
	}
	// An explicit -json with more than one engine benchmark selected would
	// make a later write silently clobber an earlier one; each benchmark has
	// its own default path, so only the override is ambiguous.
	if jsonSet && *jsonOut != "" && *jsonOut != "-" && len(writers) > 1 {
		usage("-json with %s would overwrite one result; run them separately", strings.Join(writers, "+"))
	}

	o := exp.Options{Scale: *scale, Queries: *queries, Seed: *seed}
	if *verbose {
		o.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	o = o.WithDefaults()

	exit := 0
	for _, e := range selected {
		r := e.Run(o, *smoke, sweep[e.Sweep])
		fmt.Println(r.Render())
		path := e.Artifact
		if jsonSet {
			path = *jsonOut
		}
		if e.Artifact != "" && path != "" && path != "-" {
			if err := exp.WriteJSON(path, r); err != nil {
				fmt.Fprintf(os.Stderr, "clusterbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		// Gating verdicts are correctness invariants; wall-clock ratios are
		// observations the report shows and never fail a run (CI machines
		// are too noisy to fail the build on a throughput ratio).
		for _, v := range r.Failed() {
			fmt.Fprintf(os.Stderr, "clusterbench: %s: verdict %s is false\n", e.Name, v)
			exit = 1
		}
	}
	os.Exit(exit)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA measures the benchmark's own noise the way the driver will: two sets
// of n full runs of every workload from the same binary, interleaved
// A B B A … so that slow drift of the machine falls on both, every run on
// another seed. For each workload and end-to-end metric it prints both
// medians, both spreads (interquartile range over median), how much worse
// the second median is than the first, and the bound. It fails if a median
// moved by more than its bound or a spread exceeds it (setup_s is exempt
// from the spread rule: it has few repeats inside a run by design).
func runAA(n, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A: 2 sets of %d runs per workload, -seconds %d\n\n", n, seconds)
	fmt.Printf("| workload | metric | median A | median B | spread A | spread B | B worse by | bound |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|\n")
	var over []string
	for _, w := range workloads {
		values := [2]map[string][]float64{{}, {}}
		seed := 0
		for i := 0; i < n; i++ {
			for _, set := range [2]int{i % 2, 1 - i%2} {
				seed++
				res, err := runSelf(self, w.Name, seed, seconds, out)
				if err != nil {
					return fmt.Errorf("%s, seed %d: %w", w.Name, seed, err)
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := values[0][m.Name], values[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% |\n",
				w.Name, m.Name, ma, mb, 100*spread(a), 100*spread(b), 100*worse, 100*m.Bound)
			if math.Abs(worse) > m.Bound {
				over = append(over, fmt.Sprintf("%s/%s: medians differ by %.2f%%, bound %.0f%%", w.Name, m.Name, 100*worse, 100*m.Bound))
			}
			if s := max(spread(a), spread(b)); s > m.Bound && m.Name != "setup_s" {
				over = append(over, fmt.Sprintf("%s/%s: spread %.2f%% exceeds bound %.0f%%", w.Name, m.Name, 100*s, 100*m.Bound))
			}
		}
	}
	if len(over) > 0 {
		fmt.Println()
		for _, line := range over {
			fmt.Println("OVER:", line)
		}
		return fmt.Errorf("%d metric(s) outside their bounds", len(over))
	}
	fmt.Println("\nevery median and spread is within its bound")
	return nil
}

// runSelf runs one full benchmark run in a fresh process and parses the last
// line of its output.
func runSelf(self, workload string, seed, seconds int, out string) (result, error) {
	var res result
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

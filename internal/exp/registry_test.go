package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// modelled marshals a result the way WriteJSON does and drops every line
// holding a "wall field — the one strip rule of the reproducibility
// contract: what is left must be byte-identical across runs.
func modelled(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"wall`)) {
			kept = append(kept, line)
		}
	}
	return bytes.Join(kept, []byte("\n"))
}

// sameModelled fails unless two results agree on every modelled column.
func sameModelled(t *testing.T, a, b any) {
	t.Helper()
	if am, bm := modelled(t, a), modelled(t, b); !bytes.Equal(am, bm) {
		t.Fatalf("modelled columns differ across runs:\n%s\n---\n%s", am, bm)
	}
}

// presetOptions is the Options every engine benchmark's smoke preset is
// tested at.
var presetOptions = Options{Scale: 512, Queries: 24, Seed: 7}

// presets holds each engine benchmark's first run at presetOptions, so the
// content checks of the Test*BenchSmoke tests read the run
// TestExperimentsDeterministic made instead of making their own.
var presets = map[string]result{}

// preset returns the named engine benchmark's smoke run at presetOptions,
// running it on first use.
func preset(t *testing.T, name string) result {
	t.Helper()
	if r, ok := presets[name]; ok {
		return r
	}
	sel, err := Select([]string{name})
	if err != nil || len(sel) != 1 {
		t.Fatalf("Select(%q) = %d experiments, err %v", name, len(sel), err)
	}
	r := sel[0].Run(presetOptions, true, nil)
	presets[name] = r
	return r
}

// TestExperimentsDeterministic is the reproducibility gate of every
// artifact: each registered engine benchmark runs twice at its -smoke
// preset; with the "wall lines stripped the two JSON documents must be
// byte-identical, and no gating verdict may be false. Backend, dynamic, knn
// and recovery also run twice on a second Options, of another scale, query
// count and seed.
func TestExperimentsDeterministic(t *testing.T) {
	second := Options{Scale: 256, Queries: 12, Seed: 9}
	for _, e := range Experiments() {
		if e.Artifact == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			a, b := preset(t, e.Name), e.Run(presetOptions, true, nil)
			sameRuns(t, a, b)
		})
		switch e.Name {
		case "backend", "dynamic", "knn", "recovery":
			t.Run(e.Name+"-seed9", func(t *testing.T) {
				sameRuns(t, e.Run(second, true, nil), e.Run(second, true, nil))
			})
		}
	}
}

// sameRuns fails unless two runs of one experiment gate true and agree on
// every modelled column.
func sameRuns(t *testing.T, a, b result) {
	t.Helper()
	if f := append(a.Failed(), b.Failed()...); len(f) != 0 {
		t.Fatalf("gating verdicts false: %v", f)
	}
	sameModelled(t, a, b)
	if a.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestRegistry pins what clusterbench derives from the registry: unique
// names, one artifact and at most one sweep flag per engine benchmark, the
// two groups, and an error for names it does not hold.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	var figures, benches int
	for _, e := range Experiments() {
		for _, name := range []string{e.Name, e.Alias, e.Artifact} {
			if name != "" && seen[name] {
				t.Fatalf("%q appears twice in the registry", name)
			}
			seen[name] = true
		}
		if e.Artifact == "" {
			figures++
			if e.Sweep != "" {
				t.Fatalf("%s sweeps -%s but writes no artifact", e.Name, e.Sweep)
			}
		} else {
			benches++
			if !strings.HasPrefix(e.Artifact, "BENCH_") {
				t.Fatalf("%s writes %q", e.Name, e.Artifact)
			}
		}
	}
	for _, tc := range []struct {
		names []string
		want  int
	}{
		{[]string{GroupFigures}, figures},
		{[]string{GroupBenches}, benches},
		{[]string{"fig6", "fig5", "knn", "knn"}, 2},
		{nil, 0},
	} {
		sel, err := Select(tc.names)
		if err != nil || len(sel) != tc.want {
			t.Fatalf("Select(%v) = %d experiments, err %v; want %d", tc.names, len(sel), err, tc.want)
		}
	}
	for _, gone := range []string{"obs", "speed", "fig99"} {
		if _, err := Select([]string{"knn", gone}); err == nil {
			t.Fatalf("Select accepted %q", gone)
		}
	}
}

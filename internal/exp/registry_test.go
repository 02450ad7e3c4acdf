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

// TestExperimentsDeterministic is the reproducibility gate of every
// artifact: each registered engine benchmark runs twice at its -smoke
// preset; with the "wall lines stripped the two JSON documents must be
// byte-identical, and no gating verdict may be false.
func TestExperimentsDeterministic(t *testing.T) {
	o := Options{Scale: 512, Queries: 24, Seed: 7}
	for _, e := range Experiments() {
		if e.Artifact == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			a, b := e.Run(o, true, nil), e.Run(o, true, nil)
			if f := append(a.Failed(), b.Failed()...); len(f) != 0 {
				t.Fatalf("gating verdicts false: %v", f)
			}
			sameModelled(t, a, b)
			if a.Render() == "" {
				t.Fatal("empty render")
			}
		})
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

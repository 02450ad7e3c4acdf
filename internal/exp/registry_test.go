package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// modelled marshals a result the way WriteJSON does and drops every line
// holding a "wall field — the one strip rule of the reproducibility
// contract: what is left must be byte-identical across runs and machines.
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
	return append(bytes.Join(kept, []byte("\n")), '\n')
}

// pinnedDir holds one file per pinned run: <name>.txt for every registry
// entry (fig6 shares fig5's) and <name>-seed9.txt for the runs at
// secondOptions.
const pinnedDir = "testdata/modelled"

// pinnedTwice names the engine benchmarks that are also pinned at
// secondOptions, of another scale, query count and seed.
var (
	secondOptions = Options{Scale: 256, Queries: 12, Seed: 9}
	pinnedTwice   = []string{"backend", "dynamic", "knn", "recovery"}
)

// pinModelled compares v's modelled output with its file under pinnedDir.
// Paper drivers are pinned at tinyOpts, engine benchmarks at presetOptions.
func pinModelled(t *testing.T, name string, v any) {
	t.Helper()
	if err := pin(filepath.Join(pinnedDir, name+".txt"), modelled(t, v)); err != nil {
		t.Error(err)
	}
}

// pin compares got with the file at path. A missing or different file is
// rewritten with got, and the error names it and its first differing line:
// accept a deliberate change by running the test twice and committing the
// file, as with TestSurface.
func pin(path string, got []byte) error {
	old, err := os.ReadFile(path)
	if err == nil && bytes.Equal(old, got) {
		return nil
	}
	if werr := os.WriteFile(path, got, 0o644); werr != nil {
		return fmt.Errorf("%s differed and could not be rewritten: %v", path, werr)
	}
	if err != nil {
		return fmt.Errorf("%s was unreadable (%v) and is written anew; review and commit it", path, err)
	}
	was, now := strings.Split(string(old), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(was) && i < len(now) && was[i] == now[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	return fmt.Errorf("%s differed from line %d on and is rewritten; review and commit it:\n- %s\n+ %s",
		path, i+1, line(was), line(now))
}

// TestPin holds the pinning helper to its contract: a missing file and a
// different one each fail, naming the file (and the first differing line),
// and are left holding the new bytes; an equal file passes and is not
// rewritten.
func TestPin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.txt")
	got := []byte("{\n  \"a\": 1,\n  \"b\": 2\n}\n")
	for _, tc := range []struct {
		old  []byte
		want string
	}{
		{nil, "unreadable"},
		{[]byte("{\n  \"a\": 1,\n  \"b\": 3\n}\n"), "line 3 on"},
		{[]byte("{\n  \"a\": 1,\n"), "line 3 on"},
	} {
		if tc.old != nil {
			if err := os.WriteFile(path, tc.old, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := pin(path, got)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("pin over %q = %v, want an error naming %s and %q", tc.old, err, path, tc.want)
		}
		if data, _ := os.ReadFile(path); !bytes.Equal(data, got) {
			t.Fatalf("pin over %q left %q, want %q", tc.old, data, got)
		}
	}
	past := time.Unix(1e9, 0)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	if err := pin(path, got); err != nil {
		t.Fatalf("pin over an equal file = %v", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.ModTime().Equal(past) {
		t.Fatalf("pin rewrote an equal file: %v, %v", fi.ModTime(), err)
	}
}

// presetOptions is the Options every engine benchmark's smoke preset is
// tested at.
var presetOptions = Options{Scale: 512, Queries: 24, Seed: 7}

// presets holds each engine benchmark's one run at presetOptions, shared by
// TestExperimentsDeterministic and the content checks of the
// Test*BenchSmoke tests.
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
// artifact: each registered engine benchmark runs once at its -smoke preset,
// and those in pinnedTwice once more at secondOptions. No gating verdict may
// be false, and with the "wall lines stripped each JSON document must equal
// its file under pinnedDir — so a run that is not deterministic fails too.
// The paper drivers are pinned by TestTable1 and the TestFig*Shapes tests.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range Experiments() {
		if e.Artifact == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			checkRun(t, e.Name, preset(t, e.Name))
		})
		if slices.Contains(pinnedTwice, e.Name) {
			t.Run(e.Name+"-seed9", func(t *testing.T) {
				checkRun(t, e.Name+"-seed9", e.Run(secondOptions, true, nil))
			})
		}
	}
}

// checkRun fails unless a run gates true, renders, and matches its pin.
func checkRun(t *testing.T, name string, r result) {
	t.Helper()
	if f := r.Failed(); len(f) != 0 {
		t.Errorf("gating verdicts false: %v", f)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
	pinModelled(t, name, r)
}

// TestRegistry pins what clusterbench derives from the registry: unique
// names, one artifact and at most one sweep flag per engine benchmark, the
// two groups, and an error for names it does not hold. It also holds
// pinnedDir to the registry: one file per entry and per pinnedTwice run, and
// no file that pins nothing.
func TestRegistry(t *testing.T) {
	seen, pins := map[string]bool{}, map[string]bool{}
	var figures, benches int
	for _, e := range Experiments() {
		pins[e.Name+".txt"] = true
		if slices.Contains(pinnedTwice, e.Name) && e.Artifact != "" {
			pins[e.Name+"-seed9.txt"] = true
		}
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
	for _, name := range pinnedTwice {
		if !pins[name+"-seed9.txt"] {
			t.Errorf("pinnedTwice names %q, which is no engine benchmark", name)
		}
	}
	files, err := os.ReadDir(pinnedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !pins[f.Name()] {
			t.Errorf("%s/%s pins no registry entry: delete it", pinnedDir, f.Name())
		}
		delete(pins, f.Name())
	}
	var missing []string
	for name := range pins {
		missing = append(missing, name)
	}
	slices.Sort(missing)
	for _, name := range missing {
		t.Errorf("%s/%s is missing: its run is not pinned", pinnedDir, name)
	}
}

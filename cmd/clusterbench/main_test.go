package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spatialcluster/internal/exp"
)

// clusterbenchBin is the compiled binary, built once in TestMain.
var clusterbenchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clusterbench-test-*")
	if err != nil {
		panic(err)
	}
	clusterbenchBin = filepath.Join(dir, "clusterbench")
	out, err := exec.Command("go", "build", "-o", clusterbenchBin, ".").CombinedOutput()
	if err != nil {
		panic("building clusterbench: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestFlagMisuse covers the validations that must reject a run before any
// experiment starts: unknown (and retired) experiment names and flags,
// ambiguous -json overrides (which would let one benchmark clobber another's
// file), and malformed count lists. The clobber pairs and the count-list flags come
// from the registry. All of these exit 2 instantly.
func TestFlagMisuse(t *testing.T) {
	type misuse struct {
		name string
		args []string
		want string
	}
	cases := []misuse{
		{"unknown experiment", []string{"-exp", "fig99"}, "unknown experiment"},
		{"retired experiment obs", []string{"-exp", "obs"}, "unknown experiment"},
		{"retired experiment speed", []string{"-exp", "server,speed"}, "unknown experiment"},
		{"retired flag batches", []string{"-exp", "dynamic", "-batches", "2"}, "flag provided but not defined"},
		{"retired flag ops", []string{"-exp", "dynamic", "-ops", "100"}, "flag provided but not defined"},
		{"json clobber group", []string{"-exp", exp.GroupBenches, "-json", "x.json"}, "would overwrite"},
	}
	benches, err := exp.Select([]string{exp.GroupBenches})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range benches {
		for _, b := range benches {
			if a.Name != b.Name {
				cases = append(cases, misuse{"json clobber " + a.Name + "+" + b.Name,
					[]string{"-exp", a.Name + "," + b.Name, "-json", "x.json"}, "would overwrite"})
			}
		}
		if a.Sweep != "" {
			cases = append(cases,
				misuse{"bad " + a.Sweep + " entry", []string{"-exp", a.Name, "-" + a.Sweep, "1,0"}, "bad -" + a.Sweep},
				misuse{"bad " + a.Sweep + " entry text", []string{"-exp", a.Name, "-" + a.Sweep, "two"}, "bad -" + a.Sweep})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(clusterbenchBin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("clusterbench %v did not fail (err %v); output:\n%s", tc.args, err, out)
			}
			if ee.ExitCode() != 2 {
				t.Fatalf("clusterbench %v exited %d, want 2; output:\n%s", tc.args, ee.ExitCode(), out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("clusterbench %v output lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

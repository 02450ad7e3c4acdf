package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// sdbBin is the compiled sdb binary, built once in TestMain.
var sdbBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdb-test-*")
	if err != nil {
		panic(err)
	}
	sdbBin = filepath.Join(dir, "sdb")
	out, err := exec.Command("go", "build", "-o", sdbBin, ".").CombinedOutput()
	if err != nil {
		panic("building sdb: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns combined output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(sdbBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running sdb %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestFlagMisuse is the flag-validation table: every misuse must exit 2
// and print a usage message (a retired flag: that it is not defined), before
// any slow work happens.
func TestFlagMisuse(t *testing.T) {
	const usage = "usage of sdb"
	cases := []struct {
		name string
		args []string
		want string // in the output
	}{
		{"unknown org", []string{"-org", "tertiary"}, usage},
		{"unknown tech", []string{"-tech", "psychic"}, usage},
		{"unknown policy", []string{"-policy", "hope"}, usage},
		{"unknown map", []string{"-map", "3"}, usage},
		{"unknown series", []string{"-series", "Z"}, usage},
		{"bad scale", []string{"-scale", "0"}, usage},
		{"retired flag fsync", []string{"-fsync"}, "flag provided but not defined"},
		{"retired flag backend", []string{"-backend", "file"}, "flag provided but not defined"},
		{"malformed window", []string{"-window", "0.1,0.2,0.3"}, usage},
		{"malformed point", []string{"-point", "zero,zero"}, usage},
		{"malformed knn", []string{"-knn", "0.5,0.5"}, usage},
		{"non-integer knn k", []string{"-knn", "0.5,0.5,2.5"}, usage},
		{"non-positive knn k", []string{"-knn", "0.5,0.5,0"}, usage},
		{"load with in", []string{"-load", "s.sdb", "-in", "m.map"}, usage},
		{"load with mutate", []string{"-load", "s.sdb", "-mutate", "100"}, usage},
		{"save equals load", []string{"-save", "s.sdb", "-load", "s.sdb"}, usage},
		{"stray argument", []string{"-scale", "512", "window", "0.1,0.1,0.2,0.2"}, usage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := run(t, tc.args...)
			if code != 2 {
				t.Fatalf("sdb %v exited %d, want 2; output:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("sdb %v printed no %q; output:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestUsedDBFileRefusedFirst: a -dbfile that holds bytes is refused (exit 1)
// before the dataset is generated, so no "loaded" line is printed.
func TestUsedDBFileRefusedFirst(t *testing.T) {
	used := filepath.Join(t.TempDir(), "pages.db")
	if err := os.WriteFile(used, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "-scale", "256", "-dbfile", used)
	if code != 1 || !strings.Contains(out, "must be new or empty") {
		t.Fatalf("sdb on a used -dbfile exited %d, want 1 with the refusal; output:\n%s", code, out)
	}
	if strings.Contains(out, "loaded") {
		t.Fatalf("sdb generated the dataset before refusing the used -dbfile; output:\n%s", out)
	}
}

// TestRuntimeErrorsExitNonZero covers failures that are not flag misuse (no
// usage message expected, but the exit code must still be non-zero).
func TestRuntimeErrorsExitNonZero(t *testing.T) {
	out, code := run(t, "-load", filepath.Join(t.TempDir(), "missing.sdb"))
	if code == 0 {
		t.Fatalf("sdb -load missing exited 0; output:\n%s", out)
	}
	out, code = run(t, "-in", filepath.Join(t.TempDir(), "missing.map"))
	if code == 0 {
		t.Fatalf("sdb -in missing exited 0; output:\n%s", out)
	}
}

// TestSaveLoadRoundTripCLI drives -save and -load end to end: a tiny store
// is built on the file backend, saved, and reopened; the reopened store must
// answer the same window query with the same counts.
func TestSaveLoadRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.sdb")
	w := "-window=0.3,0.3,0.7,0.7"

	out, code := run(t, "-org", "cluster", "-scale", "512",
		"-dbfile", filepath.Join(dir, "pages.db"), w, "-save", snap)
	if code != 0 {
		t.Fatalf("build+save failed (%d):\n%s", code, out)
	}
	var buildAnswer string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window query") {
			buildAnswer = line
		}
	}
	if buildAnswer == "" {
		t.Fatalf("no window query line in build output:\n%s", out)
	}
	if !strings.Contains(out, "saved cluster org.") {
		t.Fatalf("no save confirmation in output:\n%s", out)
	}

	out, code = run(t, "-load", snap, w)
	if code != 0 {
		t.Fatalf("load failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "loaded cluster org.") {
		t.Fatalf("no load confirmation in output:\n%s", out)
	}
	var loadAnswer string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window query") {
			loadAnswer = line
		}
	}
	if loadAnswer != buildAnswer {
		t.Fatalf("window query differs across save/load:\n  built:  %s\n  loaded: %s",
			buildAnswer, loadAnswer)
	}
}

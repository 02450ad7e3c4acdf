package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	sc "spatialcluster"
	"spatialcluster/internal/snapshot"
	"spatialcluster/internal/snaptest"
)

// sdbdBin is the compiled sdbd binary, built once in TestMain.
var sdbdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdbd-test-*")
	if err != nil {
		panic(err)
	}
	sdbdBin = filepath.Join(dir, "sdbd")
	out, err := exec.Command("go", "build", "-o", sdbdBin, ".").CombinedOutput()
	if err != nil {
		panic("building sdbd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary to completion and returns output and exit code. A
// guard timeout kills a binary that unexpectedly keeps serving (a failure
// case that did not fail).
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, sdbdBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running sdbd %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestFlagMisuse is the flag-validation table: every misuse must exit 2 and
// print a usage message (a retired flag: that it is not defined) before any
// generation or listening happens.
func TestFlagMisuse(t *testing.T) {
	const usage = "usage of sdbd"
	cases := []struct {
		name string
		args []string
		want string // in the output
	}{
		{"unknown org", []string{"-org", "tertiary"}, usage},
		{"unknown map", []string{"-map", "3"}, usage},
		{"unknown series", []string{"-series", "Z"}, usage},
		{"bad scale", []string{"-scale", "0"}, usage},
		{"retired flag fsync", []string{"-fsync"}, "flag provided but not defined"},
		{"retired flag backend", []string{"-backend", "file"}, "flag provided but not defined"},
		{"retired flag compress", []string{"-dbfile", "x.db", "-compress"}, "flag provided but not defined"},
		{"retired flag tech", []string{"-tech", "SLM"}, "flag provided but not defined"},
		{"load with in", []string{"-load", "s.sdb", "-in", "m.map"}, usage},
		{"save-on-exit equals load", []string{"-load", "s.sdb", "-save-on-exit", "s.sdb"}, usage},
		{"bad max-batch", []string{"-max-batch", "0"}, usage},
		{"bad max-inflight", []string{"-max-inflight", "0"}, usage},
		{"negative throttle", []string{"-throttle", "-1"}, usage},
		{"wal with file backend", []string{"-wal", "w", "-dbfile", "x.db"}, usage},
		{"shard-of without shards", []string{"-shard-of", "0"}, usage},
		{"bad shards", []string{"-shards", "0", "-shard-of", "0"}, usage},
		{"shard-of out of range", []string{"-shards", "4", "-shard-of", "4"}, usage},
		{"negative shard-of", []string{"-shards", "4", "-shard-of", "-2"}, usage},
		{"shards with load", []string{"-shards", "4", "-shard-of", "0", "-load", "s.sdb"}, usage},
		{"stray argument", []string{"serve"}, usage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := run(t, tc.args...)
			if code != 2 {
				t.Fatalf("sdbd %v exited %d, want 2; output:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("sdbd %v printed no %q; output:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestRetiredFlags: the batch timer, the serial twin, the batch worker pool
// and the WAL's fsync cadence are gone, and so are their flags (-max-batch 1
// is serial execution; queries run on their request's goroutine; every
// acknowledged mutation is fsynced) — unknown flags exit 2.
func TestRetiredFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"serial", []string{"-serial"}},
		{"batch-wait", []string{"-batch-wait", "1ms"}},
		{"workers", []string{"-workers", "8"}},
		{"wal-sync-every", []string{"-wal", "w", "-wal-sync-every", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := run(t, tc.args...)
			if code != 2 || !strings.Contains(out, "flag provided but not defined") {
				t.Fatalf("sdbd %v exited %d, want 2 as an unknown flag; output:\n%s", tc.args, code, out)
			}
		})
	}
}

// TestUsedDBFileRefusedFirst: a -dbfile that holds bytes is refused (exit 1)
// before the dataset is generated, so a shard daemon prints no shard line.
func TestUsedDBFileRefusedFirst(t *testing.T) {
	used := filepath.Join(t.TempDir(), "pages.db")
	if err := os.WriteFile(used, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "-scale", "256", "-dbfile", used, "-shards", "2", "-shard-of", "0")
	if code != 1 || !strings.Contains(out, "must be new or empty") {
		t.Fatalf("sdbd on a used -dbfile exited %d, want 1 with the refusal; output:\n%s", code, out)
	}
	if strings.Contains(out, "sdbd: shard") || strings.Contains(out, "sdbd: built") {
		t.Fatalf("sdbd generated the dataset before refusing the used -dbfile; output:\n%s", out)
	}
}

// TestRuntimeErrorsExitNonZero covers non-flag failures (no usage message,
// exit 1): a missing snapshot and a missing map file.
func TestRuntimeErrorsExitNonZero(t *testing.T) {
	out, code := run(t, "-load", filepath.Join(t.TempDir(), "missing.sdb"))
	if code != 1 {
		t.Fatalf("sdbd -load missing exited %d, want 1; output:\n%s", code, out)
	}
	out, code = run(t, "-in", filepath.Join(t.TempDir(), "missing.map"))
	if code != 1 {
		t.Fatalf("sdbd -in missing exited %d, want 1; output:\n%s", code, out)
	}
}

// lockedBuffer collects a daemon's output on the goroutine that scans it while
// the test reads it on its own; eof closes once the scan ends.
type lockedBuffer struct {
	mu  sync.Mutex
	b   bytes.Buffer
	eof chan struct{}
}

func (l *lockedBuffer) WriteString(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(s)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// launchDaemon starts sdbd and waits for its listen line; the caller owns the
// process (crash tests kill it hard, startDaemon wraps it with a graceful
// stopper).
func launchDaemon(t *testing.T, args ...string) (*exec.Cmd, string, *lockedBuffer) {
	t.Helper()
	cmd := exec.Command(sdbdBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := &lockedBuffer{eof: make(chan struct{})}
	lines := bufio.NewScanner(stdout)
	listenRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	base := ""
	deadline := time.After(60 * time.Second)
	got := make(chan string, 1)
	go func() {
		defer close(buf.eof)
		for lines.Scan() {
			line := lines.Text()
			buf.WriteString(line + "\n")
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case got <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case base = <-got:
	case <-deadline:
		cmd.Process.Kill()
		t.Fatalf("sdbd never announced its listen address; output:\n%s", buf.String())
	}
	return cmd, base, buf
}

// startDaemon launches sdbd, waits for its listen line, and returns the base
// URL plus a stopper that SIGTERMs the daemon and waits for clean exit.
func startDaemon(t *testing.T, args ...string) (string, func() string) {
	t.Helper()
	cmd, base, buf := launchDaemon(t, args...)
	stopped := false
	stop := func() string {
		if !stopped {
			stopped = true
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { // Wait closes the pipe, so the output is read to its end first
				<-buf.eof
				done <- cmd.Wait()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("sdbd did not exit cleanly: %v\n%s", err, buf.String())
				}
			case <-time.After(60 * time.Second):
				cmd.Process.Kill()
				t.Fatalf("sdbd did not exit within a minute of SIGTERM:\n%s", buf.String())
			}
		}
		return buf.String()
	}
	t.Cleanup(func() { stop() })
	return base, stop
}

// post sends a JSON body and decodes the JSON answer.
func post(t *testing.T, url string, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding answer: %v", url, err)
	}
}

// fetch GETs url with the given Accept header, or POSTs body to it, and
// returns the answer's body.
func fetch(t *testing.T, url, accept, body string) string {
	t.Helper()
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	return string(answer)
}

// TestServeEndToEnd drives the daemon over real HTTP: build, query, mutate,
// SIGTERM with -save-on-exit, then serve the snapshot and expect the same
// answers.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "exit.sdb")
	base, stop := startDaemon(t, "-org", "cluster", "-scale", "512", "-save-on-exit", snap, "-slowlog-ms", "0.000001")

	// Stats answer.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Org     string `json:"org"`
		Objects int    `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Org != "cluster org." || stats.Objects == 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}

	// A window query, then a mutation, then the same query.
	var q struct {
		IDs []uint64 `json:"ids"`
	}
	post(t, base+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &q)
	if len(q.IDs) == 0 {
		t.Fatal("window query answered nothing")
	}
	firstAnswer := len(q.IDs)
	var del struct {
		Existed bool `json:"existed"`
	}
	post(t, base+"/delete", fmt.Sprintf(`{"id":%d}`, q.IDs[0]), &del)
	if !del.Existed {
		t.Fatalf("delete of served answer %d reported not existing", q.IDs[0])
	}
	post(t, base+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &q)
	if len(q.IDs) != firstAnswer-1 {
		t.Fatalf("after delete: %d answers, want %d", len(q.IDs), firstAnswer-1)
	}

	// The observability surface: a traced query's span tree, both /metrics
	// formats and the slow-query log, which every request enters.
	for _, c := range []struct{ path, accept, body, want string }{
		{"/query/knn?trace=1", "", `{"point":[0.5,0.5],"k":5}`, `"stage":"execute"`},
		{"/metrics", "", "", `"p95_ms"`},
		{"/metrics", "text/plain", "", "\nsdb_requests_total{"},
		{"/metrics", "text/plain", "", `le="+Inf"`},
		{"/metrics", "text/plain", "", "\nsdb_request_duration_seconds_count{"},
		{"/debug/slowlog", "", "", `"endpoint":"/`},
	} {
		if got := fetch(t, base+c.path, c.accept, c.body); !strings.Contains(got, c.want) {
			t.Fatalf("%s (Accept %q) lacks %s:\n%s", c.path, c.accept, c.want, got)
		}
	}

	// Graceful shutdown writes the snapshot.
	out := stop()
	if !strings.Contains(out, "snapshot saved to") || !strings.Contains(out, "bye") {
		t.Fatalf("shutdown output missing snapshot/bye lines:\n%s", out)
	}

	// A second daemon serves the snapshot with the post-mutation answers.
	base2, stop2 := startDaemon(t, "-load", snap)
	post(t, base2+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &q)
	if len(q.IDs) != firstAnswer-1 {
		t.Fatalf("snapshot serve: %d answers, want %d", len(q.IDs), firstAnswer-1)
	}
	stop2()
}

// writeSmallSnapshot saves a small cluster store to path and returns the
// file's bytes.
func writeSmallSnapshot(t *testing.T, path string) []byte {
	t.Helper()
	s := sc.NewClusterStore(sc.StoreConfig{SmaxBytes: 16 * 1024})
	for i := 1; i <= 50; i++ {
		x := float64(i%10) / 10
		y := float64(i/10) / 10
		obj := sc.NewObject(sc.ObjectID(i), sc.NewPolyline([]sc.Point{
			sc.Pt(x, y), sc.Pt(x+0.01, y+0.02),
		}), 300)
		s.Insert(obj, obj.Bounds())
	}
	s.Flush()
	if err := sc.Save(s, path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestLoadBrokenSnapshot drives the daemon's -load path through the shared
// snapshot-corruption table: every truncation and corruption must make sdbd
// exit 1 with the same descriptive error the library reports — never a
// panic, never a usage message, and never a serving daemon.
func TestLoadBrokenSnapshot(t *testing.T) {
	dir := t.TempDir()
	full := writeSmallSnapshot(t, filepath.Join(dir, "good.sdb"))
	if len(full) <= snapshot.HeaderSize {
		t.Fatalf("snapshot implausibly small: %d bytes", len(full))
	}
	for _, tc := range snaptest.All(len(full) - snapshot.HeaderSize) {
		t.Run(tc.Name, func(t *testing.T) {
			p := filepath.Join(dir, "broken.sdb")
			if err := os.WriteFile(p, tc.Mutate(full), 0o644); err != nil {
				t.Fatal(err)
			}
			out, code := run(t, "-load", p)
			if code != 1 {
				t.Fatalf("sdbd -load of a broken snapshot (%s) exited %d, want 1; output:\n%s",
					tc.Name, code, out)
			}
			if strings.Contains(out, "panic") {
				t.Fatalf("sdbd panicked on a broken snapshot:\n%s", out)
			}
			if strings.Contains(out, "usage of sdbd") {
				t.Fatalf("a broken snapshot is a runtime error, not flag misuse:\n%s", out)
			}
			if !strings.Contains(out, tc.Want) {
				t.Fatalf("output %q does not contain %q", out, tc.Want)
			}
		})
	}
}

// TestWALCrashRecovery drives the daemon's -wal path end to end: serve with a
// write-ahead log, mutate, kill the process hard (no flush, no graceful
// shutdown), and restart on the same directory — the daemon must recover and
// answer exactly as before the crash. Restarting with -load against the live
// log must be refused as flag misuse.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	wdir := filepath.Join(dir, "wal")
	cmd, base, _ := launchDaemon(t, "-org", "cluster", "-scale", "64", "-wal", wdir)

	// Mutate: delete a served answer, insert a fresh object.
	var q struct {
		IDs []uint64 `json:"ids"`
	}
	post(t, base+"/query/window", `{"window":[0,0,1,1]}`, &q)
	if len(q.IDs) == 0 {
		t.Fatal("window query answered nothing")
	}
	var del struct {
		Existed bool `json:"existed"`
	}
	post(t, base+"/delete", fmt.Sprintf(`{"id":%d}`, q.IDs[0]), &del)
	if !del.Existed {
		t.Fatalf("delete of served answer %d reported not existing", q.IDs[0])
	}
	post(t, base+"/insert",
		`{"object":{"id":9000001,"kind":"polyline","vertices":[[0.4,0.4],[0.41,0.41]],"pad":100}}`,
		&struct{}{})

	// /stats must report the log: 2 acknowledged records, both fsynced.
	var stats struct {
		WAL *struct {
			LastLSN uint64 `json:"last_lsn"`
			Syncs   int64  `json:"syncs"`
		} `json:"wal"`
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.WAL == nil || stats.WAL.LastLSN != 2 || stats.WAL.Syncs < 1 {
		t.Fatalf("/stats wal block %+v, want last_lsn 2 with at least one sync", stats.WAL)
	}
	want := append([]uint64(nil), q.IDs[1:]...)
	want = append(want, 9000001)

	// Crash: SIGKILL, nothing flushed, nothing saved.
	cmd.Process.Kill()
	cmd.Wait()

	// The log is now the data source; combining it with -load is misuse.
	out, code := run(t, "-wal", wdir, "-load", filepath.Join(dir, "x.sdb"))
	if code != 2 || !strings.Contains(out, "already holds a log") {
		t.Fatalf("sdbd -wal (existing) -load exited %d, want 2 with explanation; output:\n%s", code, out)
	}

	// Recovery: the restarted daemon announces the replay and answers exactly
	// as the crashed one did after its acknowledged mutations.
	base2, stop2 := startDaemon(t, "-wal", wdir)
	post(t, base2+"/query/window", `{"window":[0,0,1,1]}`, &q)
	if len(q.IDs) != len(want) {
		t.Fatalf("recovered daemon answers %d objects, want %d", len(q.IDs), len(want))
	}
	got := make(map[uint64]bool, len(q.IDs))
	for _, id := range q.IDs {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("recovered daemon lost acknowledged object %d", id)
		}
	}
	out = stop2()
	if !strings.Contains(out, "recovered") || !strings.Contains(out, "2 records replayed") {
		t.Fatalf("recovery startup did not announce the replay:\n%s", out)
	}
}

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
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The binaries under test, built once in TestMain: the router itself plus
// the shard daemon it fronts (the end-to-end test runs a real cluster).
var (
	routerBin string
	sdbdBin   string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdbrouter-test-*")
	if err != nil {
		panic(err)
	}
	routerBin = filepath.Join(dir, "sdbrouter")
	out, err := exec.Command("go", "build", "-o", routerBin, ".").CombinedOutput()
	if err != nil {
		panic("building sdbrouter: " + err.Error() + "\n" + string(out))
	}
	sdbdBin = filepath.Join(dir, "sdbd")
	out, err = exec.Command("go", "build", "-o", sdbdBin, "spatialcluster/cmd/sdbd").CombinedOutput()
	if err != nil {
		panic("building sdbd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes sdbrouter to completion and returns output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, routerBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running sdbrouter %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestFlagMisuse is the flag-validation table: every misuse must exit 2 and
// print a usage message before the router listens.
func TestFlagMisuse(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no shards", nil, "-shards is required"},
		{"missing shard address", []string{"-shards", "=0-100,http://h:1"}, "no address"},
		{"missing second address", []string{"-shards", "http://h:1,"}, "no address"},
		{"mixed ranges", []string{"-shards", "http://h:1=0-100,http://h:2"}, "every shard one or none"},
		{"malformed range", []string{"-shards", "http://h:1=0:100"}, "not lo-hi"},
		{"bad range start", []string{"-shards", "http://h:1=x-100"}, "bad range start"},
		{"bad range end", []string{"-shards", "http://h:1=0-y"}, "bad range end"},
		{"range not starting at zero", []string{"-shards", "http://h:1=5-4294967296"}, "bad -shards"},
		{"range not covering the space", []string{"-shards", "http://h:1=0-100"}, "bad -shards"},
		{"overlapping ranges", []string{"-shards",
			"http://h:1=0-3000000000,http://h:2=2000000000-4294967296"}, "overlap"},
		{"gap between ranges", []string{"-shards",
			"http://h:1=0-1000,http://h:2=2000-4294967296"}, "bad -shards"},
		{"inverted range", []string{"-shards",
			"http://h:1=2000000000-1000,http://h:2=1000-4294967296"}, "bad -shards"},
		{"negative pad", []string{"-shards", "http://h:1", "-pad", "-0.1"}, "bad -pad"},
		{"bad max-inflight", []string{"-shards", "http://h:1", "-max-inflight", "0"}, "bad -max-inflight"},
		{"bad retry-attempts", []string{"-shards", "http://h:1", "-retry-attempts", "0"}, "bad -retry-attempts"},
		{"stray argument", []string{"-shards", "http://h:1", "serve"}, "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := run(t, tc.args...)
			if code != 2 {
				t.Fatalf("sdbrouter %v exited %d, want 2; output:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, "usage of sdbrouter") {
				t.Fatalf("sdbrouter %v printed no usage message; output:\n%s", tc.args, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("sdbrouter %v output lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// lockedBuffer collects a daemon's output on the goroutine that scans it while
// the test reads it on its own.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
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

// startDaemon launches a binary, waits for its listen line, and returns the
// base URL plus a stopper that SIGTERMs the daemon and waits for clean exit.
func startDaemon(t *testing.T, bin string, args ...string) (string, *lockedBuffer) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := &lockedBuffer{}
	lines := bufio.NewScanner(stdout)
	listenRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	got := make(chan string, 1)
	go func() {
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
	var base string
	select {
	case base = <-got:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("%s never announced its listen address; output:\n%s", filepath.Base(bin), buf.String())
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	return base, buf
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

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding answer: %v", url, err)
	}
}

type idsAnswer struct {
	IDs []uint64 `json:"ids"`
}

func sorted(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// shardRangeRe matches the partition line a shard daemon prints at startup.
var shardRangeRe = regexp.MustCompile(`shard \d+ of \d+ \(hilbert \[(\d+),(\d+)\)`)

// TestClusterEndToEnd runs the real thing: two sdbd shard daemons that
// partitioned the same generated dataset, sdbrouter in front configured with
// the exact ranges the daemons printed, and one unsharded reference daemon —
// queries and mutations through the router must answer exactly like the
// reference.
func TestClusterEndToEnd(t *testing.T) {
	gen := []string{"-org", "cluster", "-scale", "512", "-seed", "5"}

	baseA, bufA := startDaemon(t, sdbdBin, append(gen, "-shards", "2", "-shard-of", "0")...)
	baseB, bufB := startDaemon(t, sdbdBin, append(gen, "-shards", "2", "-shard-of", "1")...)
	ref, _ := startDaemon(t, sdbdBin, gen...)

	rangeOf := func(buf *lockedBuffer) string {
		m := shardRangeRe.FindStringSubmatch(buf.String())
		if m == nil {
			t.Fatalf("shard daemon printed no partition line:\n%s", buf.String())
		}
		return m[1] + "-" + m[2]
	}
	spec := fmt.Sprintf("%s=%s,%s=%s", baseA, rangeOf(bufA), baseB, rangeOf(bufB))
	router, _ := startDaemon(t, routerBin, "-shards", spec, "-pad", "0.05", "-slowlog-ms", "0.000001")

	// The cluster reassembles the full dataset.
	var shards struct {
		Shards []struct {
			Addr string `json:"addr"`
			Lo   uint64 `json:"lo"`
			Hi   uint64 `json:"hi"`
		} `json:"shards"`
	}
	get(t, router+"/shards", &shards)
	if len(shards.Shards) != 2 || shards.Shards[0].Addr != baseA || shards.Shards[1].Addr != baseB {
		t.Fatalf("/shards answered %+v, want the two daemons in order", shards)
	}
	var stats struct {
		Shards  int `json:"shards"`
		Objects int `json:"objects"`
	}
	get(t, router+"/stats", &stats)
	var refStats struct {
		Objects int `json:"objects"`
	}
	get(t, ref+"/stats", &refStats)
	if stats.Shards != 2 || stats.Objects != refStats.Objects {
		t.Fatalf("router serves %d objects over %d shards, reference has %d",
			stats.Objects, stats.Shards, refStats.Objects)
	}

	// Queries answer exactly like the unsharded daemon.
	for _, body := range []string{
		`{"window":[0.2,0.2,0.6,0.6]}`,
		`{"window":[0.45,0.1,0.55,0.9]}`, // straddles the shard boundary region
		`{"window":[0,0,1,1]}`,
	} {
		var got, want idsAnswer
		post(t, router+"/query/window", body, &got)
		post(t, ref+"/query/window", body, &want)
		if len(got.IDs) == 0 {
			t.Fatalf("window %s answered nothing through the router", body)
		}
		g, w := sorted(got.IDs), sorted(want.IDs)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("window %s: router %d answers, reference %d", body, len(g), len(w))
		}
	}
	var gotKNN, wantKNN idsAnswer
	post(t, router+"/query/knn", `{"point":[0.5,0.5],"k":10}`, &gotKNN)
	post(t, ref+"/query/knn", `{"point":[0.5,0.5],"k":10}`, &wantKNN)
	if fmt.Sprint(gotKNN.IDs) != fmt.Sprint(wantKNN.IDs) {
		t.Fatalf("knn through router %v, reference %v (rank order)", gotKNN.IDs, wantKNN.IDs)
	}

	// Mutations route through the cluster and stay in lockstep with the
	// reference.
	var q idsAnswer
	post(t, router+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &q)
	victim := q.IDs[0]
	var del struct {
		Existed bool `json:"existed"`
	}
	post(t, router+"/delete", fmt.Sprintf(`{"id":%d}`, victim), &del)
	if !del.Existed {
		t.Fatalf("delete of served answer %d reported not existing", victim)
	}
	post(t, ref+"/delete", fmt.Sprintf(`{"id":%d}`, victim), &del)
	ins := `{"object":{"id":9000001,"kind":"polyline","vertices":[[0.41,0.42],[0.43,0.44]],"pad":100}}`
	post(t, router+"/insert", ins, &struct{}{})
	post(t, ref+"/insert", ins, &struct{}{})
	var got, want idsAnswer
	post(t, router+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &got)
	post(t, ref+"/query/window", `{"window":[0.2,0.2,0.6,0.6]}`, &want)
	g, w := sorted(got.IDs), sorted(want.IDs)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("after mutations: router %d answers, reference %d", len(g), len(w))
	}

	// The aggregated metrics speak for the whole cluster.
	var metrics struct {
		Shards  int `json:"shards"`
		Objects int `json:"objects"`
		Router  map[string]struct {
			Count int64 `json:"count"`
		} `json:"router_endpoints"`
		ShardClients []json.RawMessage `json:"shard_clients"`
	}
	get(t, router+"/metrics", &metrics)
	if metrics.Shards != 2 || metrics.Objects != len(w) && metrics.Objects < len(w) || len(metrics.ShardClients) == 0 {
		t.Fatalf("metrics %+v implausible", metrics)
	}
	if metrics.Router["/query/window"].Count < 4 {
		t.Fatalf("router endpoint counters missing traffic: %+v", metrics.Router)
	}

	// A traced query answers one distributed span tree: a scatter span plus
	// one shard[i] child per shard touched, each carrying the shard's own
	// execute sub-trace — and the same IDs as the untraced answer.
	var traced struct {
		IDs   []uint64 `json:"ids"`
		Trace *struct {
			TraceID uint64 `json:"trace_id"`
			TotalMS float64
			Spans   []struct {
				ID     uint32  `json:"id,omitempty"`
				Parent uint32  `json:"parent,omitempty"`
				Stage  string  `json:"stage"`
				DurMS  float64 `json:"dur_ms"`
				Count  int     `json:"count"`
			} `json:"spans"`
		} `json:"trace"`
	}
	post(t, router+"/query/window?trace=1", `{"window":[0,0,1,1]}`, &traced)
	if traced.Trace == nil || traced.Trace.TraceID == 0 {
		t.Fatalf("traced window carried no trace: %+v", traced)
	}
	stages := map[string]int{}
	for _, sp := range traced.Trace.Spans {
		switch {
		case sp.Stage == "scatter", sp.Stage == "merge", sp.Stage == "execute":
			stages[sp.Stage]++
			stages[sp.Stage+" count"] += sp.Count
		case strings.HasPrefix(sp.Stage, "shard["):
			stages["shard"]++
		}
	}
	if stages["scatter"] != 1 || stages["shard"] != 2 || stages["scatter count"] != 2 || stages["execute"] < 2 {
		t.Fatalf("traced span tree misses stages (want 1 scatter counting 2 shard, >=2 execute): %v\nspans: %+v",
			stages, traced.Trace.Spans)
	}
	var tracedKNN struct {
		Trace struct{ Spans []struct{ Stage string } }
	}
	post(t, router+"/query/knn?trace=1", `{"point":[0.5,0.5],"k":5}`, &tracedKNN)
	if !strings.Contains(fmt.Sprint(tracedKNN), "wave[") {
		t.Fatalf("traced k-NN query has no wave[i] span: %+v", tracedKNN)
	}
	var untraced idsAnswer
	post(t, router+"/query/window", `{"window":[0,0,1,1]}`, &untraced)
	if fmt.Sprint(sorted(traced.IDs)) != fmt.Sprint(sorted(untraced.IDs)) {
		t.Fatalf("traced answer diverged: %d vs %d IDs", len(traced.IDs), len(untraced.IDs))
	}

	// Liveness, readiness, and the Prometheus exposition.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(router + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(router + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"sdbrouter_requests_total", "sdbrouter_shard_requests_total",
		"sdbrouter_fanout_shards_bucket", "sdbrouter_shard_retries_total",
		"\nsdbrouter_shard_duration_seconds_count{",
	} {
		if !strings.Contains(string(promBody), family) {
			t.Fatalf("prom exposition lacks %s:\n%s", family, promBody)
		}
	}

	// Every request enters the slow-query log; a query's entry names the
	// slowest shard it touched.
	var slow struct {
		Entries []struct{ Endpoint, Shard string }
	}
	get(t, router+"/debug/slowlog", &slow)
	if !strings.Contains(fmt.Sprint(slow), "/query/") {
		t.Fatalf("slow-query log holds no query: %+v", slow)
	}
	for _, e := range slow.Entries {
		if strings.HasPrefix(e.Endpoint, "/query/") && e.Shard == "" {
			t.Fatalf("slow-query log entry of %s names no shard", e.Endpoint)
		}
	}
}

package server_test

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/server"
	"spatialcluster/internal/wal"
)

func obsDataset() *datagen.Dataset {
	return datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 7})
}

// TestTracedAnswersIdentical is the trace differential: on every
// organization, a traced window, point or k-NN query must return exactly the
// answer of its untraced twin, its spans must include the dispatcher stages,
// and the summed span durations must not exceed the trace's wall clock
// (spans are disjoint stages of one request).
func TestTracedAnswersIdentical(t *testing.T) {
	ds := obsDataset()
	ws := ds.Windows(0.001, 12, 5)
	pts := ds.Points(8, 6)
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			_, c := startServer(t, buildOrg(t, kind, ds), server.Config{})
			for wi, w := range ws {
				plain, err := c.Window(w, "")
				if err != nil {
					t.Fatalf("window %d: %v", wi, err)
				}
				traced, err := c.WindowTraced(w, "")
				if err != nil {
					t.Fatalf("traced window %d: %v", wi, err)
				}
				if !equalU64(sortedWire(plain.IDs), sortedWire(traced.IDs)) || plain.Candidates != traced.Candidates {
					t.Fatalf("window %d: traced answer differs from untraced", wi)
				}
				if plain.Trace != nil {
					t.Fatalf("window %d: untraced answer carries a trace", wi)
				}
				checkTrace(t, fmt.Sprintf("window %d", wi), traced.Trace, "execute")
			}
			for pi, pt := range pts {
				plainPt, err := c.Point(pt)
				if err != nil {
					t.Fatalf("point %d: %v", pi, err)
				}
				tracedPt, err := c.PointTraced(pt)
				if err != nil {
					t.Fatalf("traced point %d: %v", pi, err)
				}
				if !equalU64(sortedWire(plainPt.IDs), sortedWire(tracedPt.IDs)) {
					t.Fatalf("point %d: traced answer differs from untraced", pi)
				}
				checkTrace(t, fmt.Sprintf("point %d", pi), tracedPt.Trace, "execute")

				plain, err := c.KNN(pt, 5)
				if err != nil {
					t.Fatalf("knn %d: %v", pi, err)
				}
				traced, err := c.KNNTraced(pt, 5)
				if err != nil {
					t.Fatalf("traced knn %d: %v", pi, err)
				}
				if !equalU64(plain.IDs, traced.IDs) {
					t.Fatalf("knn %d: traced answer differs from untraced", pi)
				}
				checkTrace(t, fmt.Sprintf("knn %d", pi), traced.Trace, "execute")
			}
		})
	}
}

// checkTrace validates the invariants of one returned trace: the named stage
// is present, every span fits inside the total, and the summed stage
// durations do not exceed the request wall.
func checkTrace(t *testing.T, what string, tr *server.TraceInfo, wantStage string) {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: no trace in answer", what)
	}
	if len(tr.Spans) == 0 {
		t.Fatalf("%s: trace has no spans", what)
	}
	var sum float64
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.DurMS < 0 || sp.StartMS < 0 {
			t.Fatalf("%s: negative span %+v", what, sp)
		}
		sum += sp.DurMS
		seen[sp.Stage] = true
	}
	if !seen["queue_wait"] {
		t.Fatalf("%s: no queue_wait span: %+v", what, tr.Spans)
	}
	if !seen[wantStage] {
		t.Fatalf("%s: no %s span: %+v", what, wantStage, tr.Spans)
	}
	// Generous slack: TotalMS is clocked later than the last span ends, so
	// the inequality is structural, but scheduling noise should not flake it.
	if sum > tr.TotalMS+1 {
		t.Fatalf("%s: span sum %.3f ms exceeds wall %.3f ms", what, sum, tr.TotalMS)
	}
}

// TestTracedMutationWAL checks that a traced insert against a WAL-attached
// store reports its commit: an apply span with WAL bytes and a sync.
func TestTracedMutationWAL(t *testing.T) {
	ds := obsDataset()
	ws, err := wal.Create(buildOrg(t, "cluster", ds), t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	_, c := startServer(t, ws, server.Config{})

	var out server.MutateResponse
	obj, err := server.FromObject(ds.Objects[0])
	if err != nil {
		t.Fatal(err)
	}
	obj.ID = 9_000_001
	if err := c.Post("/insert?trace=1", server.InsertRequest{Object: obj}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace in traced insert answer")
	}
	var apply *struct {
		bytes, syncs int64
	}
	for _, sp := range out.Trace.Spans {
		if sp.Stage == "apply" {
			if sp.IO == nil {
				t.Fatalf("apply span has no IO attribution: %+v", sp)
			}
			apply = &struct{ bytes, syncs int64 }{sp.IO.WALBytes, sp.IO.WALSyncs}
		}
	}
	if apply == nil {
		t.Fatalf("no apply span: %+v", out.Trace.Spans)
	}
	if apply.bytes <= 0 || apply.syncs <= 0 {
		t.Fatalf("apply span reports wal_bytes=%d wal_syncs=%d, want both positive",
			apply.bytes, apply.syncs)
	}
}

// promSampleLine matches one exposition sample line.
var promSampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9.e+-]+|[+-]Inf|NaN)$`)

// TestPromExposition scrapes a live server's /metrics in Prometheus format
// and validates the exposition: every line parses, every histogram's bucket
// counts are cumulative/monotone and end in le="+Inf" equal to _count, and
// the core families are present. Both negotiation paths (?format=prom and
// Accept: text/plain) must answer the same format.
func TestPromExposition(t *testing.T) {
	ds := obsDataset()
	org := buildOrg(t, "cluster", ds)
	_, c := startServer(t, org, server.Config{})

	// Traffic first, so counters and histograms are non-trivial.
	for _, w := range ds.Windows(0.001, 20, 3) {
		if _, err := c.Window(w, ""); err != nil {
			t.Fatal(err)
		}
	}

	body, err := c.Raw("/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"sdb_requests_total", "sdb_request_duration_seconds_bucket",
		"sdb_buffer_hit_ratio", "sdb_model_io_seconds_total",
		"sdb_batches_total", "sdb_uptime_seconds", "sdb_slowlog_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition lacks %s", family)
		}
	}

	type histState struct {
		buckets  []float64
		inf      float64
		count    float64
		haveInf  bool
		haveCnt  bool
		haveSmpl bool
	}
	hists := map[string]*histState{} // keyed by full label set
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("line does not parse as exposition format: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("value of %q: %v", line, err)
		}
		name := line[:sp]
		const fam = "sdb_request_duration_seconds"
		switch {
		case strings.HasPrefix(name, fam+"_bucket"):
			key := endpointOf(name)
			h := hists[key]
			if h == nil {
				h = &histState{}
				hists[key] = h
			}
			h.haveSmpl = true
			if strings.Contains(name, `le="+Inf"`) {
				h.haveInf, h.inf = true, val
			} else {
				h.buckets = append(h.buckets, val)
			}
		case strings.HasPrefix(name, fam+"_count"):
			key := endpointOf(name)
			h := hists[key]
			if h == nil {
				h = &histState{}
				hists[key] = h
			}
			h.haveCnt, h.count = true, val
		}
	}
	if len(hists) == 0 {
		t.Fatal("no request_duration histograms in exposition")
	}
	for key, h := range hists {
		if !h.haveSmpl || !h.haveInf || !h.haveCnt {
			t.Fatalf("%s: incomplete histogram family (buckets=%v inf=%v count=%v)",
				key, h.haveSmpl, h.haveInf, h.haveCnt)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Fatalf("%s: bucket counts not monotone: %v", key, h.buckets)
			}
		}
		if n := len(h.buckets); n > 0 && h.buckets[n-1] > h.inf {
			t.Fatalf("%s: finite bucket %g above +Inf %g", key, h.buckets[n-1], h.inf)
		}
		if h.inf != h.count {
			t.Fatalf("%s: le=\"+Inf\" %g != _count %g", key, h.inf, h.count)
		}
	}

	// Accept-header negotiation answers the same format; explicit
	// ?format=json keeps JSON for a text/plain client.
	viaAccept := scrapeWithAccept(t, c, "/metrics", "text/plain")
	if !strings.HasPrefix(viaAccept, "# HELP") {
		t.Fatalf("Accept: text/plain did not select exposition format: %.60q", viaAccept)
	}
	viaJSON := scrapeWithAccept(t, c, "/metrics?format=json", "text/plain")
	if !strings.HasPrefix(strings.TrimSpace(viaJSON), "{") {
		t.Fatalf("?format=json did not force JSON: %.60q", viaJSON)
	}
}

// endpointOf extracts the endpoint label value of a sample name.
func endpointOf(name string) string {
	m := regexp.MustCompile(`endpoint="([^"]*)"`).FindStringSubmatch(name)
	if m == nil {
		return ""
	}
	return m[1]
}

// scrapeWithAccept GETs a path with an Accept header and returns the body.
func scrapeWithAccept(t *testing.T, c *server.Client, path, accept string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSlowLogEndpoint runs queries against a server whose slowlog threshold
// records everything, and checks the ring answers over HTTP.
func TestSlowLogEndpoint(t *testing.T) {
	ds := obsDataset()
	org := buildOrg(t, "secondary", ds)
	_, c := startServer(t, org, server.Config{SlowLogMS: 1e-9})

	ws := ds.Windows(0.001, 5, 11)
	for _, w := range ws {
		if _, err := c.Window(w, ""); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := c.SlowLog()
	if err != nil {
		t.Fatal(err)
	}
	if sl.Total < int64(len(ws)) {
		t.Fatalf("slowlog total %d, want at least %d", sl.Total, len(ws))
	}
	if len(sl.Entries) == 0 {
		t.Fatal("slowlog has no entries")
	}
	seenWindow := false
	for i, e := range sl.Entries {
		if e.Endpoint == "/query/window" {
			seenWindow = true
			if e.WallMS <= 0 {
				t.Fatalf("entry %d: non-positive wall %g", i, e.WallMS)
			}
			if e.ExecMS > e.WallMS {
				t.Fatalf("entry %d: exec %g ms exceeds wall %g ms", i, e.ExecMS, e.WallMS)
			}
		}
		if i > 0 && sl.Entries[i-1].Seq < e.Seq {
			t.Fatal("slowlog entries not newest-first")
		}
	}
	if !seenWindow {
		t.Fatalf("no window-query entries in slowlog: %+v", sl.Entries)
	}

	// A negative threshold disables recording.
	_, cOff := startServer(t, buildOrg(t, "secondary", ds), server.Config{SlowLogMS: -1})
	if _, err := cOff.Window(ws[0], ""); err != nil {
		t.Fatal(err)
	}
	slOff, err := cOff.SlowLog()
	if err != nil {
		t.Fatal(err)
	}
	if slOff.Total != 0 || len(slOff.Entries) != 0 {
		t.Fatalf("disabled slowlog recorded %d entries", slOff.Total)
	}
}

// TestMetricsQuantiles checks that the JSON /metrics carries the latency
// quantiles per endpoint, with the old fields intact.
func TestMetricsQuantiles(t *testing.T) {
	ds := obsDataset()
	org := buildOrg(t, "primary", ds)
	_, c := startServer(t, org, server.Config{})

	for _, w := range ds.Windows(0.001, 10, 13) {
		if _, err := c.Window(w, ""); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Endpoints["/query/window"]
	if !ok {
		t.Fatalf("no /query/window endpoint in metrics: %v", m.Endpoints)
	}
	if ep.Count != 10 {
		t.Fatalf("count %d, want 10", ep.Count)
	}
	if ep.P50MS <= 0 || ep.P95MS <= 0 || ep.P99MS <= 0 {
		t.Fatalf("quantiles not populated: p50=%g p95=%g p99=%g", ep.P50MS, ep.P95MS, ep.P99MS)
	}
	if ep.P50MS > ep.P95MS || ep.P95MS > ep.P99MS {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", ep.P50MS, ep.P95MS, ep.P99MS)
	}
	if ep.MeanMS <= 0 || ep.MaxMS <= 0 || ep.TotalMS <= 0 {
		t.Fatalf("legacy fields lost: mean=%g max=%g total=%g", ep.MeanMS, ep.MaxMS, ep.TotalMS)
	}
	// The histogram's bucket-resolution quantile must bracket the exact mean
	// loosely — p99 at least the mean is a weak sanity bound that catches
	// unit mistakes (ns vs ms) without flaking on scheduling noise.
	if ep.P99MS < ep.MeanMS/2 {
		t.Fatalf("p99 %g ms implausibly below mean %g ms", ep.P99MS, ep.MeanMS)
	}
}

// TestPprofGate checks the pprof mount is present exactly when configured.
func TestPprofGate(t *testing.T) {
	ds := obsDataset()
	_, cOn := startServer(t, buildOrg(t, "secondary", ds), server.Config{Pprof: true})
	if _, err := cOn.Raw("/debug/pprof/cmdline"); err != nil {
		t.Fatalf("pprof enabled but /debug/pprof/cmdline failed: %v", err)
	}
	_, cOff := startServer(t, buildOrg(t, "secondary", ds), server.Config{})
	if _, err := cOff.Raw("/debug/pprof/cmdline"); err == nil {
		t.Fatal("pprof disabled but /debug/pprof/cmdline answered")
	}
}

// TestScrapeUnderLoad is the -race stress of the lock-free registry: queries,
// mutations, JSON scrapes, Prometheus scrapes and slowlog reads all run
// concurrently. The assertions are weak (no errors, counters move); the data
// race detector is the real check.
func TestScrapeUnderLoad(t *testing.T) {
	ds := obsDataset()
	org := buildOrg(t, "cluster", ds)
	_, c := startServer(t, org, server.Config{SlowLogMS: 1e-9})

	ws := ds.Windows(0.001, 64, 17)
	pts := ds.Points(64, 19)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%3 == 0 {
					_, err = c.WindowTraced(ws[(g*16+i)%len(ws)], "")
				} else {
					_, err = c.Window(ws[(g*16+i)%len(ws)], "")
				}
				if err != nil {
					fail(err)
					return
				}
				if _, err = c.Point(pts[(g*16+i)%len(pts)]); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // scraper goroutine: both formats plus slowlog
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Metrics(); err != nil {
				fail(err)
				return
			}
			if _, err := c.Raw("/metrics?format=prom"); err != nil {
				fail(err)
				return
			}
			if _, err := c.SlowLog(); err != nil {
				fail(err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["/query/window"].Count == 0 || m.Endpoints["/metrics"].Count == 0 {
		t.Fatalf("counters did not move under load: %+v", m.Endpoints)
	}
}

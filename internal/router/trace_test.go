package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// buildOrgKind builds any of the three storage organizations over objs.
func buildOrgKind(kind string, smaxBytes int, objs []*object.Object, keys []geom.Rect) store.Organization {
	var org store.Organization
	switch kind {
	case "secondary":
		org = store.NewSecondary(store.NewEnv(128))
	case "primary":
		org = store.NewPrimary(store.NewEnv(128))
	case "cluster":
		org = store.NewCluster(store.NewEnv(128), store.ClusterConfig{SmaxBytes: smaxBytes})
	default:
		panic("unknown org kind " + kind)
	}
	for i, o := range objs {
		org.Insert(o, keys[i])
	}
	org.Flush()
	return org
}

// startClusterKeep is startCluster plus handles on the shard HTTP servers,
// for tests that take shards down.
func startClusterKeep(t *testing.T, pmap *shard.Map, orgs []store.Organization) (*testCluster, []*httptest.Server) {
	t.Helper()
	clients := make([]*server.Client, len(orgs))
	servers := make([]*httptest.Server, len(orgs))
	for i, org := range orgs {
		s := server.New(org, server.Config{})
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		servers[i] = hs
		clients[i] = server.NewClient(hs.URL, 16)
		clients[i].Binary = true
		clients[i].Retry = &server.Retry{Attempts: 2, BaseDelay: time.Millisecond,
			MaxDelay: 2 * time.Millisecond, Seed: 11}
	}
	rt, err := router.New(pmap, clients, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	return &testCluster{pmap: pmap, client: server.NewClient(hs.URL, 16), shards: clients, rt: rt}, servers
}

// checkSpanTree validates an assembled distributed trace: one scatter span
// whose Count matches the shard[i] children, every shard span carrying its
// shard's grafted execute sub-trace, a merge span, and no span outlasting
// the trace (with slack for clock coarseness).
func checkSpanTree(t *testing.T, label string, ti *server.TraceInfo, wantShards int, wantWaves bool) {
	t.Helper()
	if ti == nil || ti.TraceID == 0 {
		t.Fatalf("%s: traced answer carried no trace: %+v", label, ti)
	}
	byID := make(map[uint32]obs.Span)
	var scatter *obs.Span
	var shardSpans, waveSpans, execSpans, mergeSpans []obs.Span
	for _, sp := range ti.Spans {
		sp := sp
		if sp.ID != 0 {
			byID[sp.ID] = sp
		}
		switch {
		case sp.Stage == "scatter":
			if scatter != nil {
				t.Fatalf("%s: two scatter spans", label)
			}
			scatter = &sp
		case strings.HasPrefix(sp.Stage, "shard["):
			shardSpans = append(shardSpans, sp)
		case strings.HasPrefix(sp.Stage, "wave["):
			waveSpans = append(waveSpans, sp)
		case sp.Stage == "execute":
			execSpans = append(execSpans, sp)
		case sp.Stage == "merge":
			mergeSpans = append(mergeSpans, sp)
		}
		const slackMS = 50
		if sp.DurMS > ti.TotalMS+slackMS {
			t.Fatalf("%s: span %q lasted %.3fms, trace wall %.3fms", label, sp.Stage, sp.DurMS, ti.TotalMS)
		}
	}
	if scatter == nil || scatter.Parent != 0 {
		t.Fatalf("%s: no root scatter span in %+v", label, ti.Spans)
	}
	if len(shardSpans) != wantShards {
		t.Fatalf("%s: %d shard spans, want %d: %+v", label, len(shardSpans), wantShards, ti.Spans)
	}
	if scatter.Count != int64(wantShards) {
		t.Fatalf("%s: scatter span Count %d, want fan-out %d", label, scatter.Count, wantShards)
	}
	if len(mergeSpans) != 1 {
		t.Fatalf("%s: %d merge spans, want 1", label, len(mergeSpans))
	}
	if len(execSpans) < wantShards {
		t.Fatalf("%s: %d execute sub-spans for %d shards — a shard's trace was not grafted",
			label, len(execSpans), wantShards)
	}
	// Every shard span hangs off the scatter span (directly, or through a
	// wave span for k-NN), and every execute span hangs under a shard span.
	for _, sp := range shardSpans {
		parent := sp.Parent
		if wantWaves {
			wv, ok := byID[parent]
			if !ok || !strings.HasPrefix(wv.Stage, "wave[") {
				t.Fatalf("%s: shard span parented to %d, want a wave span", label, parent)
			}
			parent = wv.Parent
		}
		if parent != scatter.ID {
			t.Fatalf("%s: shard span chain does not reach the scatter span", label)
		}
	}
	for _, sp := range execSpans {
		p, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("%s: execute span parented to unknown span %d", label, sp.Parent)
		}
		if !strings.HasPrefix(p.Stage, "shard[") && p.Stage != "queue_wait" && p.Stage != "execute" {
			t.Fatalf("%s: execute span parented to %q, want a shard[i] span", label, p.Stage)
		}
	}
	if wantWaves {
		if len(waveSpans) == 0 {
			t.Fatalf("%s: k-NN trace carries no wave spans", label)
		}
		var width int64
		for _, wv := range waveSpans {
			if wv.Parent != scatter.ID {
				t.Fatalf("%s: wave span parented to %d, want scatter %d", label, wv.Parent, scatter.ID)
			}
			width += wv.Count
		}
		if width != scatter.Count {
			t.Fatalf("%s: wave widths sum to %d, scatter fan-out %d", label, width, scatter.Count)
		}
	} else if len(waveSpans) != 0 {
		t.Fatalf("%s: window/point trace carries wave spans", label)
	}
}

// TestRouterTracePropagation is the distributed-tracing differential suite:
// over every storage organization and both wire protocols, traced answers
// through the router must be identical to untraced ones and to the single
// reference store — fresh and after churn routed through the cluster — and
// every trace must assemble into a sound span tree. Two shards everywhere;
// the cluster organization also at one shard (no fan-out) and at four.
func TestRouterTracePropagation(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 17})
	stream := ds.Stream(datagen.StreamSpec{N: 12, WindowArea: 0.01, K: 7, Seed: 23})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 40, HotspotFrac: 0.5, Seed: 24})

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		for _, proto := range []string{"json", "binary"} {
			counts := []int{2}
			if kind == "cluster" {
				counts = []int{2, 1, 4}
			}
			for _, n := range counts {
				name := kind + "/" + proto
				if n != 2 {
					name += fmt.Sprintf("/%d-shards", n)
				}
				t.Run(name, func(t *testing.T) {
					pmap := shard.FromKeys(ds.MBRs, n)
					orgs := make([]store.Organization, n)
					for s := 0; s < n; s++ {
						objs, keys := shardSubset(ds, pmap, s)
						orgs[s] = buildOrgKind(kind, ds.Spec.SmaxBytes(), objs, keys)
					}
					tc := startCluster(t, pmap, orgs)
					tc.client.Binary = proto == "binary"
					ref := buildOrgKind(kind, ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)

					agree := func(phase string) {
						t.Helper()
						for i, rq := range stream {
							label := fmt.Sprintf("%s req %d", phase, i)
							switch rq.Kind {
							case datagen.OpWindow:
								traced, err := tc.client.WindowTraced(rq.Window, "")
								if err != nil {
									t.Fatalf("%s: traced window: %v", label, err)
								}
								plain, err := tc.client.Window(rq.Window, "")
								if err != nil {
									t.Fatalf("%s: window: %v", label, err)
								}
								want := ref.WindowQuery(rq.Window, store.TechComplete)
								if !equalU64(sortedU64(traced.IDs), sortedU64(idsToU64(want.IDs))) {
									t.Fatalf("%s: traced window != reference", label)
								}
								if !equalU64(sortedU64(traced.IDs), sortedU64(plain.IDs)) ||
									traced.Candidates != plain.Candidates {
									t.Fatalf("%s: traced window != untraced", label)
								}
								checkSpanTree(t, label, traced.Trace, len(pmap.Overlapping(rq.Window)), false)
							case datagen.OpKNN:
								traced, err := tc.client.KNNTraced(rq.Point, rq.K)
								if err != nil {
									t.Fatalf("%s: traced knn: %v", label, err)
								}
								plain, err := tc.client.KNN(rq.Point, rq.K)
								if err != nil {
									t.Fatalf("%s: knn: %v", label, err)
								}
								want := ref.NearestQuery(rq.Point, rq.K)
								if !equalU64(traced.IDs, idsToU64(want.IDs)) {
									t.Fatalf("%s: traced knn != reference (rank order)", label)
								}
								if !equalU64(traced.IDs, plain.IDs) {
									t.Fatalf("%s: traced knn != untraced", label)
								}
								sc := spanCount(traced.Trace, "shard[")
								checkSpanTree(t, label, traced.Trace, sc, true)
								if sc < 1 {
									t.Fatalf("%s: knn touched no shard", label)
								}
							case datagen.OpPoint:
								traced, err := tc.client.PointTraced(rq.Point)
								if err != nil {
									t.Fatalf("%s: traced point: %v", label, err)
								}
								want := ref.PointQuery(rq.Point)
								if !equalU64(sortedU64(traced.IDs), sortedU64(idsToU64(want.IDs))) {
									t.Fatalf("%s: traced point != reference", label)
								}
								checkSpanTree(t, label, traced.Trace, spanCount(traced.Trace, "shard["), false)
							}
						}
					}

					agree("fresh")
					for i, op := range ops {
						switch op.Kind {
						case datagen.OpInsert:
							ref.Insert(op.Obj, op.Key)
							if err := tc.client.Insert(op.Obj, op.Key); err != nil {
								t.Fatalf("op %d: insert: %v", i, err)
							}
						case datagen.OpDelete:
							ref.Delete(op.ID)
							if _, err := tc.client.Delete(op.ID); err != nil {
								t.Fatalf("op %d: delete: %v", i, err)
							}
						case datagen.OpUpdate:
							ref.Update(op.Obj, op.Key)
							if _, err := tc.client.Update(op.Obj, op.Key); err != nil {
								t.Fatalf("op %d: update: %v", i, err)
							}
						}
					}
					agree("churned")
				})
			}
		}
	}
}

func spanCount(ti *server.TraceInfo, prefix string) int {
	if ti == nil {
		return 0
	}
	n := 0
	for _, sp := range ti.Spans {
		if strings.HasPrefix(sp.Stage, prefix) {
			n++
		}
	}
	return n
}

// TestRouterTraceIDPropagates: a trace ID handed to the router comes back on
// the assembled trace — over both protocols.
func TestRouterTraceIDPropagates(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 19})
	tc := clusterFromDataset(t, ds, 2)
	for _, binary := range []bool{false, true} {
		tc.client.Binary = binary
		const want = 0xfeedface
		resp, err := tc.client.WithTrace(context.Background(), want).Window(geom.R(0, 0, 1, 1), "")
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if resp.Trace == nil || resp.Trace.TraceID != want {
			t.Fatalf("binary=%v: trace came back as %+v, want ID %d", binary, resp.Trace, want)
		}
	}
}

// TestRouterShardErrorAddr: when shards fail, the router's error names the
// lowest-indexed failing shard by index AND address — deterministically,
// even with every shard down.
func TestRouterShardErrorAddr(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 29})
	pmap := shard.FromKeys(ds.MBRs, 2)
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}
	tc, servers := startClusterKeep(t, pmap, orgs)
	shard0 := tc.shards[0].Base
	for _, hs := range servers {
		hs.Close()
	}

	resp, err := http.Post(tc.client.Base+"/query/window", "application/json",
		strings.NewReader(`{"window":[0,0,1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("shard 0 (shard=%s)", shard0)
	if !strings.Contains(body.Error, want) {
		t.Fatalf("error %q does not name the lowest failing shard as %q", body.Error, want)
	}
}

// TestRouterHealthReady: /healthz is liveness (always 200); /readyz requires
// every shard up and names the first one down.
func TestRouterHealthReady(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 31})
	pmap := shard.FromKeys(ds.MBRs, 2)
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}
	tc, servers := startClusterKeep(t, pmap, orgs)

	status := func(path string) int {
		resp, err := http.Get(tc.client.Base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := status("/healthz"); s != http.StatusOK {
		t.Fatalf("/healthz answered %d with the cluster up", s)
	}
	if s := status("/readyz"); s != http.StatusOK {
		t.Fatalf("/readyz answered %d with the cluster up", s)
	}

	servers[1].Close()
	resp, err := http.Get(tc.client.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz answered %d with a shard down, want 503", resp.StatusCode)
	}
	var buf [512]byte
	n, _ := resp.Body.Read(buf[:])
	if !strings.Contains(string(buf[:n]), "shard 1") {
		t.Fatalf("/readyz did not name the down shard: %q", buf[:n])
	}
	if s := status("/healthz"); s != http.StatusOK {
		t.Fatalf("/healthz answered %d with a shard down — liveness must not depend on shards", s)
	}
}

// TestRouterRetryCounters: the router attaches retry counters to its shard
// clients; a flaky shard shows up in the /metrics shard-client block.
func TestRouterRetryCounters(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 37})
	pmap := shard.FromKeys(ds.MBRs, 2)
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}
	tc := startCluster(t, pmap, orgs)
	ft := &flakyTransport{inner: tc.shards[0].HTTP.Transport}
	ft.fails.Store(2)
	tc.shards[0].HTTP = &http.Client{Transport: ft}

	if _, err := tc.client.Window(geom.R(0, 0, 1, 1), ""); err != nil {
		t.Fatalf("window through flaky shard: %v", err)
	}
	st := tc.shards[0].Counters.Stats()
	if st.RetriedConn < 2 {
		t.Fatalf("shard 0 retry counters saw %d connection retries, want >= 2 (%+v)", st.RetriedConn, st)
	}
	if st.Attempts <= st.RetriedConn {
		t.Fatalf("attempts %d not above retries %d", st.Attempts, st.RetriedConn)
	}

	raw, err := tc.client.Raw("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m router.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ShardTier) != 2 {
		t.Fatalf("metrics list %d shard clients, want 2", len(m.ShardTier))
	}
	if m.ShardTier[0].Retry.RetriedConn < 2 || m.ShardTier[0].Retry.Attempts == 0 {
		t.Fatalf("shard client metrics missed the retries: %+v", m.ShardTier[0])
	}
	if m.ShardTier[0].Calls == 0 || m.ShardTier[1].Calls == 0 {
		t.Fatalf("per-shard call counters empty: %+v", m.ShardTier)
	}
	if len(m.Fanout) != 3 || m.Fanout[2] == 0 {
		t.Fatalf("fanout counters did not record the 2-shard scatter: %v", m.Fanout)
	}
}

// TestRouterAbortsScatterOnCancel: the request's context and trace identity
// ride to the shards. Over one live shard and one that never answers, a
// traced window is stuck on the hung shard until its inbound context is
// cancelled — then the router answers promptly with the cancellation — and
// the live shard saw the trace ID the request carried.
func TestRouterAbortsScatterOnCancel(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 41})
	pmap := shard.FromKeys(ds.MBRs, 2)
	objs, keys := shardSubset(ds, pmap, 0)
	live := server.New(buildOrg(ds.Spec.SmaxBytes(), objs, keys), server.Config{})

	const traceID = 0xabad1dea
	sawTrace := make(chan uint64, 1)
	liveHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if payload, err := framing.ReadRecord(bytes.NewReader(body), binproto.MaxMessage, nil); err == nil {
			if _, id, traced, err := binproto.UntraceReq(payload); err == nil && traced {
				sawTrace <- id
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		live.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(liveHS.Close)
	entered, release := make(chan struct{}, 1), make(chan struct{})
	hungHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hungHS.Close)
	t.Cleanup(func() { close(release) })

	clients := []*server.Client{server.NewClient(liveHS.URL, 4), server.NewClient(hungHS.URL, 4)}
	for _, c := range clients {
		c.Binary = true
	}
	rt, err := router.New(pmap, clients, router.Config{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answered := make(chan error, 1)
	go func() {
		rq := &server.Request{Ctx: ctx, Trace: obs.NewTraceWithID(traceID)}
		_, err := rt.Window(rq, geom.R(0, 0, 1, 1), store.TechDefault)
		answered <- err
	}()
	<-entered
	if id := <-sawTrace; id != traceID {
		t.Fatalf("live shard was sent trace ID %#x, want %#x", id, traceID)
	}
	select {
	case err := <-answered:
		t.Fatalf("scatter over a hung shard returned before the cancel: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-answered:
		// The caller's own cancellation, not a StatusError blaming the shard
		// that happened to be slow.
		if err != context.Canceled {
			t.Fatalf("cancelled scatter answered %v, want the bare context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scatter still waiting on the hung shard 30 s after its context was cancelled")
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	for _, c := range clients {
		if want := fmt.Sprintf("sdbrouter_shard_errors_total{shard=%q} 0\n", c.Base); !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("a caller hanging up was counted as a shard error: no %q in\n%s", want, rec.Body)
		}
	}
}

// TestRouterMoveOutlivesCaller: a cross-shard update is an insert on one
// shard and a delete on another, and a caller that hangs up once the move has
// begun must not split it. The target shard holds the insert of a move back
// until the caller has cancelled; the move still completes, and the object
// ends up on the target shard and nowhere else — with the route cache warm
// (one delete at the known owner) and cold (a delete broadcast).
func TestRouterMoveOutlivesCaller(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 43})
	pmap := shard.FromKeys(ds.MBRs, 2)
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	clients := make([]*server.Client, 2)
	var home [2][]int // dataset indices by owning shard
	for i, k := range ds.MBRs {
		home[pmap.ShardOfKey(k)] = append(home[pmap.ShardOfKey(k)], i)
	}
	for s := range clients {
		objs, keys := shardSubset(ds, pmap, s)
		h := server.New(buildOrg(ds.Spec.SmaxBytes(), objs, keys), server.Config{}).Handler()
		if s == 1 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/insert") {
					entered <- struct{}{}
					select {
					case <-release:
					case <-done:
					}
				}
				inner.ServeHTTP(w, r)
			})
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		clients[s] = server.NewClient(hs.URL, 4)
		clients[s].Binary = true
	}
	t.Cleanup(func() { close(done) }) // before the servers close: a failed run leaves the gate held
	rt, err := router.New(pmap, clients, router.Config{})
	if err != nil {
		t.Fatal(err)
	}

	for c, label := range []string{"warm route", "cold route"} {
		// The object takes the shape, and with it the key, of one across the
		// boundary.
		o, dest := ds.Objects[home[0][c]], ds.MBRs[home[1][c]]
		moved := object.New(o.ID, ds.Objects[home[1][c]].Geom, 0)
		if label == "warm route" {
			// A same-shard update teaches the router where the object lives.
			if existed, err := rt.Update(&server.Request{}, o, ds.MBRs[home[0][c]]); err != nil || !existed {
				t.Fatalf("%s: warming update: existed=%v, %v", label, existed, err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		type verdict struct {
			existed bool
			err     error
		}
		answered := make(chan verdict, 1)
		go func() {
			existed, err := rt.Update(&server.Request{Ctx: ctx}, moved, dest)
			answered <- verdict{existed, err}
		}()
		<-entered // the move has begun: its insert is at the target's door
		cancel()
		select {
		case v := <-answered:
			t.Fatalf("%s: move abandoned half-done when its caller hung up: existed=%v, %v", label, v.existed, v.err)
		case <-time.After(100 * time.Millisecond):
		}
		release <- struct{}{}
		if v := <-answered; v.err != nil || !v.existed {
			t.Fatalf("%s: move answered existed=%v, %v", label, v.existed, v.err)
		}
		for s, want := range []bool{false, true} {
			if got, err := clients[s].Delete(o.ID); err != nil || got != want {
				t.Fatalf("%s: after the move, object on shard %d: %v (%v), want %v", label, s, got, err, want)
			}
		}
	}
}

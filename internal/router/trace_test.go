package router_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/loadgen"
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
	stream := loadgen.NewStream(ds, loadgen.StreamSpec{N: 12, WindowArea: 0.01, K: 7, Seed: 23})
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
							case loadgen.KindWindow:
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
							case loadgen.KindKNN:
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
							case loadgen.KindPoint:
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
		resp, err := tc.client.WindowTracedID(geom.R(0, 0, 1, 1), "", want)
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

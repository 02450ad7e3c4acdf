package router_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// buildOrg builds a cluster organization holding the given objects.
func buildOrg(smaxBytes int, objs []*object.Object, keys []geom.Rect) store.Organization {
	org := store.NewCluster(store.NewEnv(128), store.ClusterConfig{SmaxBytes: smaxBytes})
	for i, o := range objs {
		org.Insert(o, keys[i])
	}
	org.Flush()
	return org
}

// shardSubset filters a dataset to the objects a shard owns.
func shardSubset(ds *datagen.Dataset, m *shard.Map, s int) ([]*object.Object, []geom.Rect) {
	var objs []*object.Object
	var keys []geom.Rect
	for i := range ds.Objects {
		if m.ShardOfKey(ds.MBRs[i]) == s {
			objs = append(objs, ds.Objects[i])
			keys = append(keys, ds.MBRs[i])
		}
	}
	return objs, keys
}

// testCluster is a full in-process cluster: N shard servers behind a router.
type testCluster struct {
	pmap   *shard.Map
	client *server.Client   // speaks to the router
	shards []*server.Client // speak to the shards directly
	rt     *router.Router
}

// startCluster builds one server per shard over orgs and a router in front,
// the router → shard hop over the binary protocol as sdbrouter runs it.
func startCluster(t *testing.T, pmap *shard.Map, orgs []store.Organization) *testCluster {
	t.Helper()
	clients := make([]*server.Client, len(orgs))
	for i, org := range orgs {
		s := server.New(org, server.Config{})
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		clients[i] = server.NewClient(hs.URL, 16)
		clients[i].Binary = true
		clients[i].Retry = &server.Retry{Attempts: 5, BaseDelay: time.Millisecond,
			MaxDelay: 8 * time.Millisecond, Seed: 11}
	}
	rt, err := router.New(pmap, clients, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	return &testCluster{pmap: pmap, client: server.NewClient(hs.URL, 16), shards: clients, rt: rt}
}

// clusterFromDataset shards ds across n stores and fronts them with a router.
func clusterFromDataset(t *testing.T, ds *datagen.Dataset, n int) *testCluster {
	t.Helper()
	pmap := shard.FromKeys(ds.MBRs, n)
	orgs := make([]store.Organization, n)
	for s := 0; s < n; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}
	return startCluster(t, pmap, orgs)
}

func sortedU64(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func idsToU64(ids []object.ID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coverage tallies what agreeStream compared: per query kind, the
// comparisons and those whose reference answer was non-empty, and the
// windows that spanned two or more shards.
type coverage struct {
	compared, nonEmpty map[datagen.OpKind]int
	multiShardWindows  int
}

func (c *coverage) add(kind datagen.OpKind, want int) {
	if c.compared == nil {
		c.compared, c.nonEmpty = map[datagen.OpKind]int{}, map[datagen.OpKind]int{}
	}
	c.compared[kind]++
	if want > 0 {
		c.nonEmpty[kind]++
	}
}

// agreeStream replays a query stream against the router and a single
// reference store, failing on the first divergent answer, and tallies the
// comparisons into cov.
func agreeStream(t *testing.T, label string, tc *testCluster, ref store.Organization, stream []datagen.Op, cov *coverage) {
	t.Helper()
	for i, rq := range stream {
		switch rq.Kind {
		case datagen.OpWindow:
			got, err := tc.client.Window(rq.Window, "")
			if err != nil {
				t.Fatalf("%s req %d: window: %v", label, i, err)
			}
			want := ref.WindowQuery(rq.Window, store.TechComplete)
			if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
				t.Fatalf("%s req %d: window %v: router %v != reference %v",
					label, i, rq.Window, got.IDs, want.IDs)
			}
			cov.add(rq.Kind, len(want.IDs))
			if len(tc.pmap.Overlapping(rq.Window)) > 1 {
				cov.multiShardWindows++
			}
		case datagen.OpPoint:
			got, err := tc.client.Point(rq.Point)
			if err != nil {
				t.Fatalf("%s req %d: point: %v", label, i, err)
			}
			want := ref.PointQuery(rq.Point)
			if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
				t.Fatalf("%s req %d: point %v: router %v != reference %v",
					label, i, rq.Point, got.IDs, want.IDs)
			}
			cov.add(rq.Kind, len(want.IDs))
		case datagen.OpKNN:
			got, err := tc.client.KNN(rq.Point, rq.K)
			if err != nil {
				t.Fatalf("%s req %d: knn: %v", label, i, err)
			}
			want := ref.NearestQuery(rq.Point, rq.K)
			if !equalU64(got.IDs, idsToU64(want.IDs)) {
				t.Fatalf("%s req %d: knn %v k=%d: router %v != reference %v (rank order)",
					label, i, rq.Point, rq.K, got.IDs, want.IDs)
			}
			cov.add(rq.Kind, len(want.IDs))
		}
	}
}

// vertexPoints returns 2n point queries on vertices of stored objects, which
// the reference answers with at least that object while it lives: where the
// partition has boundaries, n of them lie within the pad of one (the point
// overlaps two or more shards) and n elsewhere.
func vertexPoints(ds *datagen.Dataset, pmap *shard.Map, n int, seed int64) []datagen.Op {
	var inner, boundary []datagen.Op
	for _, p := range ds.VertexPoints(len(ds.Objects), seed) {
		op := datagen.Op{Kind: datagen.OpPoint, Point: p}
		if len(pmap.Overlapping(geom.RectFromPoint(op.Point))) > 1 {
			if len(boundary) < n {
				boundary = append(boundary, op)
			}
		} else if len(inner) < 2*n {
			inner = append(inner, op)
		}
	}
	return append(boundary, inner[:2*n-len(boundary)]...)
}

// TestRouterDifferential is the acceptance suite: over 1/2/4/8 shards, the
// router's window/point/k-NN answers are identical to a single reference
// store — before and after a MixedWorkload churn stream applied through the
// router's mutation endpoints (with mutation verdicts compared op by op).
// The stream's own points miss Map 1's polylines, so point queries on their
// vertices, some within the pad of a shard boundary, join it; at least half
// of the comparisons of each kind must have a non-empty reference answer,
// or agreeing answers would prove little.
func TestRouterDifferential(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 7})
	stream := ds.Stream(datagen.StreamSpec{N: 48, WindowArea: 0.004, K: 9, Seed: 21})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 140, HotspotFrac: 0.5, Seed: 22})

	for _, n := range []int{1, 2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			tc := clusterFromDataset(t, ds, n)
			ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)
			stream := append(slices.Clip(stream), vertexPoints(ds, tc.pmap, 12, 24)...)
			var cov coverage
			agreeStream(t, "fresh", tc, ref, stream, &cov)

			for i, op := range ops {
				switch op.Kind {
				case datagen.OpInsert:
					ref.Insert(op.Obj, op.Key)
					if err := tc.client.Insert(op.Obj, op.Key); err != nil {
						t.Fatalf("op %d: insert: %v", i, err)
					}
				case datagen.OpDelete:
					want := ref.Delete(op.ID)
					got, err := tc.client.Delete(op.ID)
					if err != nil {
						t.Fatalf("op %d: delete: %v", i, err)
					}
					if got != want {
						t.Fatalf("op %d: delete %d: router existed=%v, reference %v", i, op.ID, got, want)
					}
				case datagen.OpUpdate:
					want := ref.Update(op.Obj, op.Key)
					got, err := tc.client.Update(op.Obj, op.Key)
					if err != nil {
						t.Fatalf("op %d: update: %v", i, err)
					}
					if got != want {
						t.Fatalf("op %d: update %d: router existed=%v, reference %v", i, op.Obj.ID, got, want)
					}
				case datagen.OpWindow:
					got, err := tc.client.Window(op.Window, "")
					if err != nil {
						t.Fatalf("op %d: query: %v", i, err)
					}
					want := ref.WindowQuery(op.Window, store.TechComplete)
					if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
						t.Fatalf("op %d: window %v mid-churn: router != reference", i, op.Window)
					}
				}
			}
			agreeStream(t, "churned", tc, ref, stream, &cov)
			for kind, c := range cov.compared {
				t.Logf("%v: %d of %d comparisons non-empty", kind, cov.nonEmpty[kind], c)
				if 2*cov.nonEmpty[kind] < c {
					t.Errorf("%v: only %d of %d comparisons had a non-empty reference answer", kind, cov.nonEmpty[kind], c)
				}
			}
			t.Logf("%d windows spanned two or more shards", cov.multiShardWindows)
			if n > 1 && cov.multiShardWindows == 0 {
				t.Error("no window spanned two or more shards")
			}
		})
	}
}

// TestRouterConcurrentClientsAgree drives a mixed window/point/k-NN stream
// from twelve concurrent clients through a 3-shard router and compares every
// answer, request by request, with a single reference store: concurrent
// scatter-gather must not mix, drop or reorder one request's shard answers
// into another's.
func TestRouterConcurrentClientsAgree(t *testing.T) {
	// Map 2's administrative areas are polygons, so point queries answer too.
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesA, Scale: 128, Seed: 9})
	stream := ds.Stream(datagen.StreamSpec{N: 60, WindowArea: 0.004, K: 9, Seed: 23})
	tc := clusterFromDataset(t, ds, 3)
	ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)

	// The reference answers, sorted unless ranked (k-NN).
	want := make([][]uint64, len(stream))
	for i, rq := range stream {
		switch rq.Kind {
		case datagen.OpWindow:
			want[i] = sortedU64(idsToU64(ref.WindowQuery(rq.Window, store.TechComplete).IDs))
		case datagen.OpPoint:
			want[i] = sortedU64(idsToU64(ref.PointQuery(rq.Point).IDs))
		case datagen.OpKNN:
			want[i] = idsToU64(ref.NearestQuery(rq.Point, rq.K).IDs)
		default:
			t.Fatalf("request %d: stream op %v is not a query", i, rq.Kind)
		}
	}

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Every client sends the whole stream, each from its own offset,
			// so different request kinds are in flight at once.
			for j := range stream {
				i := (cl*5 + j) % len(stream)
				rq := stream[i]
				var got []uint64
				var err error
				switch rq.Kind {
				case datagen.OpWindow:
					r, e := tc.client.Window(rq.Window, "")
					got, err = sortedU64(r.IDs), e
				case datagen.OpPoint:
					r, e := tc.client.Point(rq.Point)
					got, err = sortedU64(r.IDs), e
				case datagen.OpKNN:
					r, e := tc.client.KNN(rq.Point, rq.K)
					got, err = r.IDs, e
				}
				if err == nil && !equalU64(got, want[i]) {
					err = fmt.Errorf("router %v != reference %v", got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("client %d, request %d (%v): %w", cl, i, rq.Kind, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// tieObj builds a degenerate vertical sliver whose exact distance from a
// horizontally aligned query point is the horizontal offset — so two of
// them, mirrored around the query point, tie exactly.
func tieObj(id uint64, x, y float64) (*object.Object, geom.Rect) {
	o := object.New(object.ID(id), geom.NewPolyline([]geom.Point{
		geom.Pt(x, y), geom.Pt(x, y+1e-9),
	}), 0)
	return o, o.Bounds()
}

// TestRouterKNNTieAcrossBoundary pins the k-NN merge's tie handling: objects
// at exactly equal distance from the query point live on different shards,
// and k cuts through the tie group — the global (distance, ID) order must
// decide, exactly as a single store would.
func TestRouterKNNTieAcrossBoundary(t *testing.T) {
	var objs []*object.Object
	var keys []geom.Rect
	add := func(id uint64, x, y float64) {
		o, k := tieObj(id, x, y)
		objs = append(objs, o)
		keys = append(keys, k)
	}
	// Four objects at distance exactly 0.25 from (0.5, 0.5): two on each
	// side of the vertical mid-line, with IDs interleaved across sides so
	// the tie-break order alternates shards.
	add(10, 0.25, 0.5)
	add(11, 0.75, 0.5)
	add(12, 0.25, 0.5)
	add(13, 0.75, 0.5)
	// One strictly nearer and one strictly farther object as anchors.
	add(1, 0.5, 0.4)
	add(99, 0.05, 0.05)

	pmap := shard.FromKeys(keys, 2)
	left, _ := shardSubset(&datagen.Dataset{Objects: objs, MBRs: keys}, pmap, 0)
	if len(left) == 0 || len(left) == len(objs) {
		t.Fatalf("tie objects did not straddle the boundary: %d of %d on shard 0", len(left), len(objs))
	}
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		so, sk := shardSubset(&datagen.Dataset{Objects: objs, MBRs: keys}, pmap, s)
		orgs[s] = buildOrg(32768, so, sk)
	}
	tc := startCluster(t, pmap, orgs)
	ref := buildOrg(32768, objs, keys)

	p := geom.Pt(0.5, 0.5)
	for k := 1; k <= 6; k++ {
		got, err := tc.client.KNN(p, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := ref.NearestQuery(p, k)
		if !equalU64(got.IDs, idsToU64(want.IDs)) {
			t.Fatalf("k=%d: router %v != reference %v", k, got.IDs, want.IDs)
		}
	}
	// The tie group straddles the cut at k=3: nearest is id 1, then the
	// four-way tie at 0.25 resolved by ID.
	got, err := tc.client.KNN(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(got.IDs, []uint64{1, 10, 11}) {
		t.Fatalf("k=3 tie-break answered %v, want [1 10 11]", got.IDs)
	}
}

// TestRouterZeroShardWindow: a window farther from the data space than any
// key half-extent overlaps zero shards; the router answers it empty without
// asking any shard — and agrees with the reference store.
func TestRouterZeroShardWindow(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 3})
	tc := clusterFromDataset(t, ds, 4)
	ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)

	far := geom.R(5, 5, 6, 6)
	if shards := tc.pmap.Overlapping(far); len(shards) != 0 {
		t.Fatalf("far window overlaps shards %v, want none", shards)
	}
	got, err := tc.client.Window(far, "")
	if err != nil {
		t.Fatal(err)
	}
	want := ref.WindowQuery(far, store.TechComplete)
	if len(got.IDs) != 0 || len(want.IDs) != 0 {
		t.Fatalf("far window answers: router %v, reference %v, want both empty", got.IDs, want.IDs)
	}
	// No shard saw the request: shard-side query counters stay empty.
	for s, c := range tc.shards {
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Endpoints["/query/window"].Count + m.Endpoints["/bin/window"].Count; n > 0 {
			t.Fatalf("shard %d served %d window queries for a zero-shard window", s, n)
		}
	}
}

// TestRouterEmptyShard: a zero-width range owns no objects; queries spanning
// the whole space and k-NN must still answer exactly like the reference.
func TestRouterEmptyShard(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 9})
	cut := geom.HilbertRange / 2
	pmap, err := shard.FromRanges([][2]uint64{{0, cut}, {cut, cut}, {cut, geom.HilbertRange}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.MBRs {
		pmap.Observe(ds.MBRs[i])
	}
	orgs := make([]store.Organization, 3)
	for s := 0; s < 3; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}
	if st := orgs[1].Stats(); st.Objects != 0 {
		t.Fatalf("middle shard owns %d objects, want 0", st.Objects)
	}
	tc := startCluster(t, pmap, orgs)
	ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)
	stream := ds.Stream(datagen.StreamSpec{N: 30, WindowArea: 0.01, K: 7, Seed: 31})
	agreeStream(t, "empty-shard", tc, ref, stream, new(coverage))
}

// flakyTransport fails the first n round trips at the connection level,
// then delegates — the same fault the typed client's retry absorbs.
type flakyTransport struct {
	inner http.RoundTripper
	fails atomic.Int64
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "read", Err: fmt.Errorf("wrapped: %w", syscall.ECONNRESET)}
	}
	return f.inner.RoundTrip(r)
}

// TestRouterShardRetry: one shard resets connections, another answers 429 —
// the router's scatter must converge through the typed clients' retry and
// still merge the correct answer.
func TestRouterShardRetry(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 13})
	ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)

	pmap := shard.FromKeys(ds.MBRs, 2)
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
	}

	t.Run("connection reset", func(t *testing.T) {
		tc := startCluster(t, pmap, orgs)
		ft := &flakyTransport{inner: tc.shards[0].HTTP.Transport}
		ft.fails.Store(3)
		tc.shards[0].HTTP = &http.Client{Transport: ft}

		w := geom.R(0, 0, 1, 1)
		got, err := tc.client.Window(w, "")
		if err != nil {
			t.Fatalf("window through flaky shard: %v", err)
		}
		want := ref.WindowQuery(w, store.TechComplete)
		if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
			t.Fatalf("answer through flaky shard: %d ids, want %d", len(got.IDs), len(want.IDs))
		}
		if ft.fails.Load() >= 0 {
			t.Fatal("flaky transport never fired")
		}
	})

	t.Run("429 overload", func(t *testing.T) {
		// Shard 1 sits behind a proxy that rejects its first three requests
		// with 429 — the admission answer the client retries with backoff.
		tc := startCluster(t, pmap, orgs)
		inner := tc.shards[1].Base
		var rejected atomic.Int64
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if rejected.Add(1) <= 3 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintln(w, `{"error":"overloaded"}`)
				return
			}
			req, _ := http.NewRequest(r.Method, inner+r.URL.Path, r.Body)
			req.Header = r.Header
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(resp.StatusCode)
			buf := make([]byte, 32<<10)
			for {
				n, err := resp.Body.Read(buf)
				if n > 0 {
					w.Write(buf[:n])
				}
				if err != nil {
					break
				}
			}
		}))
		defer proxy.Close()
		tc.shards[1].Base = proxy.URL

		w := geom.R(0, 0, 1, 1)
		got, err := tc.client.Window(w, "")
		if err != nil {
			t.Fatalf("window through 429ing shard: %v", err)
		}
		want := ref.WindowQuery(w, store.TechComplete)
		if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
			t.Fatalf("answer through 429ing shard: %d ids, want %d", len(got.IDs), len(want.IDs))
		}
		if rejected.Load() <= 3 {
			t.Fatal("shard never rejected; the retry path was not exercised")
		}
	})
}

// TestRouterPassesInsertRefusals: a shard's verdict on an insert — 409 for a
// live ID, 413 for an object no cluster unit can hold — reaches the client
// under its own status, naming the shard, not as a 502; the cluster keeps
// answering.
func TestRouterPassesInsertRefusals(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 31})
	tc := clusterFromDataset(t, ds, 2)
	huge := object.New(9_000_001, geom.NewPolyline([]geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.41, 0.41)}),
		ds.Spec.SmaxBytes()+1)
	for _, c := range []struct {
		o    *object.Object
		key  geom.Rect
		code int
	}{
		{ds.Objects[0], ds.MBRs[0], http.StatusConflict},
		{huge, huge.Bounds(), http.StatusRequestEntityTooLarge},
	} {
		err := tc.client.Insert(c.o, c.key)
		var se *server.StatusError
		if !errors.As(err, &se) || se.Code != c.code || !strings.Contains(se.Message, "(shard=") {
			t.Fatalf("insert of object %d through the router: %v, want status %d naming the shard", c.o.ID, err, c.code)
		}
	}
	if r, err := tc.client.Window(geom.R(0, 0, 1, 1), ""); err != nil || len(r.IDs) != len(ds.Objects) {
		t.Fatalf("after the refusals the cluster answers %d of %d objects, %v", len(r.IDs), len(ds.Objects), err)
	}
}

// failMove shards ds across two stores and moves ds.Objects[0] to the other
// shard, taking the geometry and key of ds.Objects[j], while its old shard
// resets every connection: the insert half lands and the delete half fails,
// so the old copy stays. The old shard is healed before failMove returns.
func failMove(t *testing.T, ds *datagen.Dataset) (tc *testCluster, moved *object.Object, j int) {
	t.Helper()
	tc = clusterFromDataset(t, ds, 2)
	old, from := ds.Objects[0], tc.pmap.ShardOfKey(ds.MBRs[0])
	j = slices.IndexFunc(ds.MBRs, func(k geom.Rect) bool { return tc.pmap.ShardOfKey(k) != from })
	moved = object.New(old.ID, ds.Objects[j].Geom, old.Pad)
	healthy := tc.shards[from].HTTP
	ft := &flakyTransport{inner: healthy.Transport}
	ft.fails.Store(1 << 20)
	tc.shards[from].HTTP = &http.Client{Transport: ft}
	if _, err := tc.client.Update(moved, ds.MBRs[j]); err == nil {
		t.Fatal("a move whose delete half failed answered no error")
	}
	tc.shards[from].HTTP = healthy
	return tc, moved, j
}

// TestFailedMoveLeavesNoStaleCopy: a move whose delete half fails leaves the
// old copy on its shard. Once that shard heals, deleting the object removes
// the old copy too: a window over the old geometry no longer answers the ID,
// and an update of it finds nothing to replace. (The delete removed only the
// new copy, and the old one came back.)
func TestFailedMoveLeavesNoStaleCopy(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 13})
	tc, _, _ := failMove(t, ds)
	old := ds.Objects[0]
	if existed, err := tc.client.Delete(old.ID); err != nil || !existed {
		t.Fatalf("the delete after the failed move answered %v, %v", existed, err)
	}
	if r, err := tc.client.Window(ds.MBRs[0], ""); err != nil || slices.Contains(r.IDs, uint64(old.ID)) {
		t.Fatalf("after its delete, a window over the old geometry answers %v, %v", r.IDs, err)
	}
	if existed, err := tc.client.Update(old, ds.MBRs[0]); err != nil || existed {
		t.Fatalf("an update of the deleted object answered %v, %v", existed, err)
	}
}

// TestFailedMoveQueriesSkipStaleCopy: a move whose delete half fails leaves
// the old copy on its shard, and before the ID's next mutation no query
// answers from it. A window and a point over the old geometry do not name the
// ID, a k-NN at the old geometry's centre answers the true k nearest of the
// live objects, and a window over the new geometry names the ID once — asked
// once and then from 4 goroutines at once, so a pooled scatter state that
// carried one query's answers or stale filter into another shows; nor do
// windows that race the delete which removes the copy and its record. (The
// merges took every shard's answer, the stale copy's included.)
func TestFailedMoveQueriesSkipStaleCopy(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 13})
	tc, moved, j := failMove(t, ds)
	old, id := ds.Objects[0], uint64(ds.Objects[0].ID)

	const k = 5
	c := ds.MBRs[0].Center()
	want := make([]float64, len(ds.Objects))
	for i, o := range ds.Objects {
		if want[i] = o.Geom.DistToPoint(c); i == 0 {
			want[i] = moved.Geom.DistToPoint(c)
		}
	}
	slices.Sort(want)
	check := func() {
		if r, err := tc.client.Window(ds.MBRs[0], ""); err != nil || slices.Contains(r.IDs, id) {
			t.Errorf("a window over the old geometry answers %v, %v", r.IDs, err)
		}
		if r, err := tc.client.Point(old.Geom.Segments()[0].A); err != nil || slices.Contains(r.IDs, id) {
			t.Errorf("a point on the old geometry answers %v, %v", r.IDs, err)
		}
		w, err := tc.client.Window(ds.MBRs[j], "")
		if n := len(slices.DeleteFunc(w.IDs, func(x uint64) bool { return x != id })); err != nil || n != 1 {
			t.Errorf("a window over the new geometry answers the ID %d times, %v; want once", n, err)
		}
		r, err := tc.client.KNN(c, k)
		if err != nil || len(r.Dists) != k {
			t.Errorf("a k-NN at the old centre answers %v, %v, want %d neighbours", r.IDs, err, k)
			return
		}
		for i, d := range r.Dists {
			if math.Abs(d-want[i]) > 1e-12 || (r.IDs[i] == id && d != moved.Geom.DistToPoint(c)) {
				t.Errorf("a k-NN at the old centre answers %v at %v, want the distances %v of the live objects", r.IDs, r.Dists, want[:k])
				return
			}
		}
	}
	check()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				check()
			}
		}()
	}
	wg.Wait()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				if r, err := tc.client.Window(ds.MBRs[0], ""); err != nil || slices.Contains(r.IDs, id) {
					t.Errorf("a window racing the delete answers %v, %v", r.IDs, err)
					return
				}
			}
		}()
	}
	if existed, err := tc.client.Delete(old.ID); err != nil || !existed {
		t.Errorf("the delete after the failed move answered %v, %v", existed, err)
	}
	wg.Wait()
}

// TestOversizeUpdateRefused: an update whose object no cluster unit can hold
// answers 413 and changes nothing — on a plain and on a WAL-attached store,
// over JSON and over the binary protocol, asked directly and through a
// router, and through a 2-shard router that would move the object to the
// other shard, with its route cached and cold. The old version keeps
// answering, and a log that holds the refused updates recovers to the same
// store. (Updating deleted the old version and then panicked on the new one,
// killing the daemon; a refused move deleted the object.)
func TestOversizeUpdateRefused(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 5})
	old, key := ds.Objects[0], ds.MBRs[0]
	huge := object.New(old.ID, old.Geom, ds.Spec.SmaxBytes()+1)
	for _, withWAL := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "wal")
		org := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)
		if withWAL {
			ws, err := wal.Create(org, dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			org = ws
		}
		stats := org.Stats()
		tc := startCluster(t, shard.FromKeys(ds.MBRs, 1), []store.Organization{org})
		direct, routed := *tc.shards[0], *tc.client
		jsonDirect := direct
		jsonDirect.Binary = false
		routedBinary := routed
		routedBinary.Binary = true
		for name, c := range map[string]*server.Client{
			"direct json": &jsonDirect, "direct binary": &direct,
			"router json": &routed, "router binary": &routedBinary,
		} {
			existed, err := c.Update(huge, key)
			var se *server.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("wal=%v %s: oversize update answered %v, %v, want status 413", withWAL, name, existed, err)
			}
			r, err := c.Window(key, "")
			if err != nil || !slices.Contains(r.IDs, uint64(old.ID)) {
				t.Fatalf("wal=%v %s: after the refusal a window on the old version answers %v, %v", withWAL, name, r.IDs, err)
			}
		}
		if got := org.Stats(); got != stats {
			t.Fatalf("wal=%v: refused updates changed the store: %+v, was %+v", withWAL, got, stats)
		}
		if !withWAL {
			continue
		}
		rec, rst, err := wal.Recover(dir, func(p disk.Params) (*store.Env, error) {
			return store.NewEnvWithParams(128, p), nil
		}, wal.Options{})
		if err != nil {
			t.Fatalf("recovering a log that holds refused updates: %v", err)
		}
		if rst.Replayed != 4 || rec.Stats() != stats {
			t.Fatalf("recovery replayed %d records into %+v, want 4 and %+v", rst.Replayed, rec.Stats(), stats)
		}
		rec.Close()
	}

	// The move: the object lives on shard 0, the new key belongs to shard 1.
	pmap := shard.FromKeys(ds.MBRs, 2)
	from, to := -1, -1
	for i, k := range ds.MBRs {
		if s := pmap.ShardOfKey(k); s == 0 && from < 0 {
			from = i
		} else if s == 1 && to < 0 {
			to = i
		}
	}
	old, key = ds.Objects[from], ds.MBRs[from]
	huge = object.New(old.ID, ds.Objects[to].Geom, ds.Spec.SmaxBytes()+1) // the shape, and key, of one across the boundary
	for _, cached := range []bool{true, false} {
		for _, binary := range []bool{false, true} {
			name := fmt.Sprintf("move cached=%v binary=%v", cached, binary)
			orgs := make([]store.Organization, 2)
			var before, after [2]store.StorageStats
			for s := range orgs {
				objs, keys := shardSubset(ds, pmap, s)
				orgs[s] = buildOrg(ds.Spec.SmaxBytes(), objs, keys)
			}
			tc := startCluster(t, pmap, orgs)
			c := *tc.client
			c.Binary = binary
			if cached { // a same-shard update teaches the router where the object lives
				if existed, err := c.Update(old, key); err != nil || !existed {
					t.Fatalf("%s: warming update answered %v, %v", name, existed, err)
				}
			}
			for s := range orgs {
				before[s] = orgs[s].Stats()
			}
			existed, err := c.Update(huge, ds.MBRs[to])
			var se *server.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: oversize update answered %v, %v, want status 413", name, existed, err)
			}
			for s := range orgs {
				after[s] = orgs[s].Stats()
			}
			if after != before {
				t.Fatalf("%s: the refused move changed the shards: %+v, were %+v", name, after, before)
			}
			r, err := c.Window(key, "")
			if err != nil || !slices.Contains(r.IDs, uint64(old.ID)) {
				t.Fatalf("%s: after the refusal a window on the old version answers %v, %v", name, r.IDs, err)
			}
			// A move of an object that lives nowhere inserts it at the
			// target, finds no old copy and takes the insert back.
			ghost := object.New(old.ID+1_000_000, ds.Objects[to].Geom, 0)
			if existed, err := c.Update(ghost, ds.MBRs[to]); existed || err != nil {
				t.Fatalf("%s: update of an absent object answered %v, %v", name, existed, err)
			}
			if r, err := c.Window(ds.MBRs[to], ""); err != nil || slices.Contains(r.IDs, uint64(ghost.ID)) {
				t.Fatalf("%s: the update of an absent object left it answering: %v, %v", name, r.IDs, err)
			}
		}
	}
}

// TestRouterWALShards: each shard runs behind its own write-ahead log;
// mutations routed through the router land in exactly one shard's log, and
// recovering every shard from disk reproduces the served answers.
func TestRouterWALShards(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 17})
	pmap := shard.FromKeys(ds.MBRs, 2)
	dirs := make([]string, 2)
	orgs := make([]store.Organization, 2)
	for s := 0; s < 2; s++ {
		objs, keys := shardSubset(ds, pmap, s)
		dirs[s] = filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", s))
		ws, err := wal.Create(buildOrg(ds.Spec.SmaxBytes(), objs, keys), dirs[s], wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		orgs[s] = ws
	}
	tc := startCluster(t, pmap, orgs)

	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 60, Seed: 18})
	for i, op := range ops {
		var err error
		switch op.Kind {
		case datagen.OpInsert:
			err = tc.client.Insert(op.Obj, op.Key)
		case datagen.OpDelete:
			_, err = tc.client.Delete(op.ID)
		case datagen.OpUpdate:
			_, err = tc.client.Update(op.Obj, op.Key)
		case datagen.OpWindow:
			_, err = tc.client.Window(op.Window, "")
		}
		if err != nil {
			t.Fatalf("op %d (%v): %v", i, op.Kind, err)
		}
	}

	w := geom.R(0, 0, 1, 1)
	served, err := tc.client.Window(w, "")
	if err != nil {
		t.Fatal(err)
	}
	// Crash-recover both shards from their logs; the union of the recovered
	// answers must equal what the live cluster served.
	var recovered []uint64
	for s := 0; s < 2; s++ {
		rec, _, err := wal.Recover(dirs[s], func(p disk.Params) (*store.Env, error) {
			return store.NewEnvWithParams(128, p), nil
		}, wal.Options{})
		if err != nil {
			t.Fatalf("shard %d: recover: %v", s, err)
		}
		recovered = append(recovered, idsToU64(rec.WindowQuery(w, store.TechComplete).IDs)...)
		rec.Close()
	}
	if !equalU64(sortedU64(served.IDs), sortedU64(recovered)) {
		t.Fatalf("recovered cluster answers %d objects, served cluster %d",
			len(recovered), len(served.IDs))
	}
}

// TestRouterAggregation covers /stats, /metrics and /shards: sums across
// shards, the partition description, and the router's own counters.
func TestRouterAggregation(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 23})
	tc := clusterFromDataset(t, ds, 3)

	// A couple of routed requests so the router counters are non-zero.
	if _, err := tc.client.Window(geom.R(0.2, 0.2, 0.4, 0.4), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.KNN(geom.Pt(0.5, 0.5), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Recluster("threshold"); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Flush(); err != nil {
		t.Fatal(err)
	}

	raw, err := tc.client.Raw("/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st router.StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("stats shards %d/%d, want 3/3", st.Shards, len(st.PerShard))
	}
	if st.Objects != len(ds.Objects) {
		t.Fatalf("stats objects %d, want %d", st.Objects, len(ds.Objects))
	}
	perShardSum := 0
	for _, ps := range st.PerShard {
		perShardSum += ps.Objects
	}
	if perShardSum != st.Objects {
		t.Fatalf("per-shard sum %d != aggregate %d", perShardSum, st.Objects)
	}

	raw, err = tc.client.Raw("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m router.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Objects != len(ds.Objects) || m.Shards != 3 {
		t.Fatalf("metrics objects %d shards %d, want %d/3", m.Objects, m.Shards, len(ds.Objects))
	}
	if m.Partition != tc.pmap.String() {
		t.Fatalf("metrics partition %q != map %q", m.Partition, tc.pmap.String())
	}
	if ep, ok := m.Router["/query/window"]; !ok || ep.Count < 1 {
		t.Fatalf("router endpoint counters missing window: %+v", m.Router)
	}

	raw, err = tc.client.Raw("/shards")
	if err != nil {
		t.Fatal(err)
	}
	var sh router.ShardsResponse
	if err := json.Unmarshal(raw, &sh); err != nil {
		t.Fatal(err)
	}
	if len(sh.Shards) != 3 {
		t.Fatalf("shards endpoint lists %d shards", len(sh.Shards))
	}
	if sh.Shards[0].Lo != 0 || sh.Shards[2].Hi != geom.HilbertRange {
		t.Fatalf("shards endpoint ranges broken: %+v", sh.Shards)
	}
	for i := 1; i < 3; i++ {
		if sh.Shards[i].Lo != sh.Shards[i-1].Hi {
			t.Fatalf("shards endpoint not contiguous at %d: %+v", i, sh.Shards)
		}
	}
}

// TestRouterShutdownDrainsKeptConns: with a query in flight on one kept
// connection to the router and another idle, sdbrouter's shutdown —
// http.Server.Shutdown, then Router.Shutdown — answers the query, closes both
// connections and leaves no goroutine of the router's Front behind.
func TestRouterShutdownDrainsKeptConns(t *testing.T) {
	keptGoroutines := func() (n int) {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "internal/server.(*keptConn).") {
				n++
			}
		}
		return n
	}
	before := keptGoroutines()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 41})
	s := server.New(buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs), server.Config{})
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var hold atomic.Bool
	shardHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() && r.URL.Path == "/bin/window" {
			entered <- struct{}{}
			<-release
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer shardHS.Close()
	cl := server.NewClient(shardHS.URL, 4)
	cl.Binary = true
	rt, err := router.New(shard.FromKeys(ds.MBRs, 1), []*server.Client{cl}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := server.HTTPServer(rt.Handler())
	go hs.Serve(ln)
	type conn struct {
		net.Conn
		br *bufio.Reader
	}
	answer := func(c conn, method string) int {
		resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	kept := func() conn { // a connection the router's Front has taken over
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		c := conn{nc, bufio.NewReader(nc)}
		io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n")
		if code := answer(c, http.MethodGet); code != http.StatusOK {
			t.Fatalf("/healthz answered %d", code)
		}
		return c
	}
	closed := func(c conn) bool {
		c.SetReadDeadline(time.Now().Add(time.Second))
		_, err := c.br.ReadByte()
		return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
	}
	idle, busy := kept(), kept()
	hold.Store(true)
	body := `{"window":[0.2,0.2,0.4,0.4]}`
	fmt.Fprintf(busy, "POST /query/window HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	<-entered
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if err == nil {
			err = rt.Shutdown(ctx)
		}
		done <- err
	}()
	if !closed(idle) {
		t.Fatal("an idle kept connection outlived the shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a query in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if code := answer(busy, http.MethodPost); code != http.StatusOK {
		t.Fatalf("the query in flight answered %d", code)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !closed(busy) {
		t.Fatal("a kept connection outlived the shutdown once answered")
	}
	for end := time.Now().Add(5 * time.Second); keptGoroutines() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines of kept connections outlive the shutdown", keptGoroutines()-before)
		}
	}
}

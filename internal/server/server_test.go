package server_test

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// buildOrg constructs a flushed organization of the given kind over ds.
func buildOrg(t *testing.T, kind string, ds *datagen.Dataset) store.Organization {
	t.Helper()
	env := store.NewEnv(128)
	var org store.Organization
	switch kind {
	case "secondary":
		org = store.NewSecondary(env)
	case "primary":
		org = store.NewPrimary(env)
	case "cluster":
		org = store.NewCluster(env, store.ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	default:
		t.Fatalf("unknown org kind %q", kind)
	}
	for i, o := range ds.Objects {
		org.Insert(o, ds.MBRs[i])
	}
	org.Flush()
	return org
}

// startServer mounts a server on an httptest listener and returns a client.
func startServer(t *testing.T, org store.Organization, cfg server.Config) (*server.Server, *server.Client) {
	t.Helper()
	s := server.New(org, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, server.NewClient(hs.URL, 16)
}

func sortedWire(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(ids []object.ID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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

// checkAgainstInProcess compares every query answer served over HTTP with
// the same query executed in-process on the reference organization, and
// returns how many of the point queries had a non-empty answer.
func checkAgainstInProcess(t *testing.T, phase string, c *server.Client, ref store.Organization,
	ws []geom.Rect, pts []geom.Point, ks []int) (nonEmptyPoints int) {
	t.Helper()
	for wi, w := range ws {
		got, err := c.Window(w, "")
		if err != nil {
			t.Fatalf("%s: window %d: %v", phase, wi, err)
		}
		want := ref.WindowQuery(w, store.TechComplete)
		if !equalU64(sortedWire(got.IDs), sortedIDs(want.IDs)) {
			t.Fatalf("%s: window %d: served %d answers, in-process %d",
				phase, wi, len(got.IDs), len(want.IDs))
		}
		if got.Candidates != want.Candidates {
			t.Fatalf("%s: window %d: served %d candidates, in-process %d",
				phase, wi, got.Candidates, want.Candidates)
		}
	}
	for pi, pt := range pts {
		got, err := c.Point(pt)
		if err != nil {
			t.Fatalf("%s: point %d: %v", phase, pi, err)
		}
		want := ref.PointQuery(pt)
		if !equalU64(sortedWire(got.IDs), sortedIDs(want.IDs)) {
			t.Fatalf("%s: point %d: served answers differ from in-process", phase, pi)
		}
		if len(want.IDs) > 0 {
			nonEmptyPoints++
		}
	}
	for _, k := range ks {
		for pi, pt := range pts {
			got, err := c.KNN(pt, k)
			if err != nil {
				t.Fatalf("%s: %d-NN %d: %v", phase, k, pi, err)
			}
			want := ref.NearestQuery(pt, k)
			if len(got.IDs) != len(want.IDs) {
				t.Fatalf("%s: %d-NN %d: served %d answers, in-process %d",
					phase, k, pi, len(got.IDs), len(want.IDs))
			}
			for i := range want.IDs { // ordered: rank by rank
				if got.IDs[i] != uint64(want.IDs[i]) {
					t.Fatalf("%s: %d-NN %d: rank %d served %d, in-process %d",
						phase, k, pi, i, got.IDs[i], want.IDs[i])
				}
			}
		}
	}
	return nonEmptyPoints
}

// TestServedAnswersMatchInProcess is the serving layer's differential suite:
// for every organization, window/point/k-NN answers served over HTTP must be
// identical to in-process calls — on the fresh store, and again after the
// same deterministic churn stream has been applied through the HTTP mutation
// endpoints (served store) and through direct calls (reference store).
func TestServedAnswersMatchInProcess(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 42,
	})
	ws := append(ds.Windows(0.001, 8, 5), ds.Windows(0.01, 4, 6)...)
	pts := ds.Points(8, 7)
	ks := []int{1, 10}
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 400, HotspotFrac: 0.5, Seed: 43})

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		for _, mode := range []string{"batched", "serial"} {
			t.Run(kind+"/"+mode, func(t *testing.T) {
				served := buildOrg(t, kind, ds)
				ref := buildOrg(t, kind, ds)
				cfg := server.Config{}
				if mode == "serial" {
					cfg.MaxBatch = 1
				}
				_, c := startServer(t, served, cfg)

				checkAgainstInProcess(t, "fresh", c, ref, ws, pts, ks)

				// The same churn stream through both paths.
				for _, op := range ops {
					switch op.Kind {
					case datagen.OpInsert:
						if err := c.Insert(op.Obj, op.Key); err != nil {
							t.Fatalf("insert over HTTP: %v", err)
						}
						ref.Insert(op.Obj, op.Key)
					case datagen.OpDelete:
						existed, err := c.Delete(op.ID)
						if err != nil {
							t.Fatalf("delete over HTTP: %v", err)
						}
						if want := ref.Delete(op.ID); existed != want {
							t.Fatalf("delete %d over HTTP existed=%v, in-process %v", op.ID, existed, want)
						}
					case datagen.OpUpdate:
						existed, err := c.Update(op.Obj, op.Key)
						if err != nil {
							t.Fatalf("update over HTTP: %v", err)
						}
						if want := ref.Update(op.Obj, op.Key); existed != want {
							t.Fatalf("update %d over HTTP existed=%v, in-process %v", op.Obj.ID, existed, want)
						}
					case datagen.OpWindow:
						got, err := c.Window(op.Window, "")
						if err != nil {
							t.Fatalf("query over HTTP: %v", err)
						}
						want := ref.WindowQuery(op.Window, store.TechComplete)
						if !equalU64(sortedWire(got.IDs), sortedIDs(want.IDs)) {
							t.Fatalf("mid-churn window answers differ")
						}
					}
				}
				if err := c.Flush(); err != nil {
					t.Fatalf("flush over HTTP: %v", err)
				}
				ref.Flush()

				checkAgainstInProcess(t, "after churn", c, ref, ws, pts, ks)

				// Storage statistics must agree too: the HTTP mutation path
				// is the same engine, not a lookalike.
				st, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Stats()
				if st.Objects != want.Objects || st.LiveBytes != want.LiveBytes ||
					st.DeadBytes != want.DeadBytes || st.Units != want.Units {
					t.Fatalf("served stats %+v, in-process %+v", st, want)
				}
			})
		}
	}
}

// TestConcurrentClientsAgree hammers a server with concurrent clients
// issuing a fixed query set and verifies every single response matches the
// serial in-process answer — concurrent queries must never mix up result
// slots — and that each query counted as one execution, a batch of one.
func TestConcurrentClientsAgree(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 9,
	})
	org := buildOrg(t, "cluster", ds)
	ref := buildOrg(t, "cluster", ds)
	_, c := startServer(t, org, server.Config{MaxBatch: 16})

	ws := ds.Windows(0.001, 24, 3)
	want := make([][]uint64, len(ws))
	for i, w := range ws {
		want[i] = sortedIDs(ref.WindowQuery(w, store.TechComplete).IDs)
	}

	const clients, rounds = 12, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (cl + round*7) % len(ws)
				got, err := c.Window(ws[i], "")
				if err != nil {
					errs <- err
					return
				}
				if !equalU64(sortedWire(got.IDs), want[i]) {
					errs <- &server.StatusError{Code: 0, Message: "answer mismatch"}
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != clients*rounds || m.BatchedJobs != clients*rounds || m.MaxBatch != 1 {
		t.Fatalf("%d queries ran as %d batches carrying %d (largest %d); want one batch of one each",
			clients*rounds, m.Batches, m.BatchedJobs, m.MaxBatch)
	}
}

// TestAdmissionControl verifies the 429 path: with one admission slot and a
// throttled disk, a second concurrent query must be rejected, and the
// rejection must be visible in the metrics.
func TestAdmissionControl(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 5,
	})
	org := buildOrg(t, "cluster", ds)
	// Replay modelled time at full speed: every query now takes tens of
	// milliseconds of wall clock, so the occupied slot is observable.
	org.Env().Disk.SetThrottle(1)
	defer org.Env().Disk.SetThrottle(0)
	_, c := startServer(t, org, server.Config{MaxInFlight: 1})

	w := ds.Windows(0.01, 1, 1)[0]
	// Volleys of concurrent requests against a single admission slot: with
	// the disk replaying modelled time, each admitted query holds the slot
	// for tens of milliseconds, so the other requests of its volley must be
	// rejected. Repeat until a 429 is observed (scheduling can in principle
	// serialize one volley; it cannot serialize them forever).
	deadline := time.Now().Add(10 * time.Second)
	sawOverload := false
	for !sawOverload {
		if time.Now().After(deadline) {
			t.Fatal("never saw a 429 with MaxInFlight=1 and a throttled disk")
		}
		const volley = 8
		errs := make(chan error, volley)
		for i := 0; i < volley; i++ {
			go func() {
				_, err := c.Window(w, "")
				errs <- err
			}()
		}
		for i := 0; i < volley; i++ {
			if server.IsOverload(<-errs) {
				sawOverload = true
			}
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Fatalf("metrics show no rejections: %+v", m)
	}
}

// TestSaveLoadOverHTTP snapshots a live store over HTTP, mutates it, loads
// the snapshot back, and expects the pre-mutation answers again.
func TestSaveLoadOverHTTP(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 11,
	})
	org := buildOrg(t, "cluster", ds)
	_, c := startServer(t, org, server.Config{})

	w := ds.Windows(0.01, 1, 2)[0]
	before, err := c.Window(w, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "live.sdb")
	sv, err := c.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Bytes == 0 {
		t.Fatal("snapshot reported zero bytes")
	}

	// Mutate: delete everything the window returned.
	for _, id := range before.IDs {
		if _, err := c.Delete(object.ID(id)); err != nil {
			t.Fatal(err)
		}
	}
	mutated, err := c.Window(w, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated.IDs) != 0 {
		t.Fatalf("window still answers %d after deleting all answers", len(mutated.IDs))
	}

	if _, err := c.Load(snap); err != nil {
		t.Fatal(err)
	}
	after, err := c.Window(w, "")
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(sortedWire(after.IDs), sortedWire(before.IDs)) {
		t.Fatal("loaded snapshot does not answer like the saved store")
	}
}

// TestShutdownSnapshot verifies graceful shutdown: drain, flush, snapshot.
func TestShutdownSnapshot(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 2048, Seed: 3,
	})
	org := buildOrg(t, "cluster", ds)
	snap := filepath.Join(t.TempDir(), "exit.sdb")
	s := server.New(org, server.Config{SnapshotPath: snap})
	hs := httptest.NewServer(s.Handler())
	c := server.NewClient(hs.URL, 4)

	w := ds.Windows(0.01, 1, 4)[0]
	want, err := c.Window(w, "")
	if err != nil {
		t.Fatal(err)
	}
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil { // idempotent
		t.Fatal(err)
	}

	reopened, err := spatialcluster.Open(snap, spatialcluster.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := reopened.WindowQuery(w, store.TechComplete)
	if !equalU64(sortedIDs(got.IDs), sortedWire(want.IDs)) {
		t.Fatal("shutdown snapshot does not answer like the served store")
	}
}

// TestBadRequests: malformed input must answer 4xx, never panic the server.
func TestBadRequests(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 4096, Seed: 1,
	})
	org := buildOrg(t, "cluster", ds)
	_, c := startServer(t, org, server.Config{})

	// A name the client's appender leaves to json.Marshal to escape, and a
	// window JSON cannot carry, take json.Marshal's way: sent, or refused.
	for _, tech := range []string{"psychic", "<psychic>"} {
		if _, err := c.Window(geom.R(0, 0, 1, 1), tech); err == nil {
			t.Fatalf("unknown technique %q accepted", tech)
		}
	}
	if _, err := c.Window(geom.R(math.NaN(), 0, 1, 1), ""); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("a NaN window: %v, want json.Marshal's refusal", err)
	}
	if _, err := c.KNN(geom.Pt(0.5, 0.5), 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	// A degenerate polyline must be rejected by validation, not by a panic
	// inside the geometry constructor.
	bad := server.ObjectJSON{ID: 999, Kind: "polyline", Vertices: [][2]float64{{0.1, 0.1}}}
	if _, err := badInsert(c, bad); err == nil {
		t.Fatal("1-vertex polyline accepted")
	}
	if _, err := badInsert(c, server.ObjectJSON{ID: 1, Kind: "blob"}); err == nil {
		t.Fatal("unknown geometry kind accepted")
	}
	if _, err := c.Load(""); err == nil {
		t.Fatal("empty load path accepted")
	}
	if _, err := c.Save(""); err == nil {
		t.Fatal("empty save path accepted")
	}
	// The server must still be alive and correct after all of that.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("server unhealthy after bad requests: %v", err)
	}
}

// badInsert posts a raw ObjectJSON (bypassing the client's own validation).
func badInsert(c *server.Client, o server.ObjectJSON) (server.MutateResponse, error) {
	var out server.MutateResponse
	err := c.Post("/insert", server.InsertRequest{Object: o}, &out)
	return out, err
}

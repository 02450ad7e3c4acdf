package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// walOrg builds a WAL-attached cluster store over ds at dir.
func walOrg(t *testing.T, ds *datagen.Dataset, dir string) *wal.Store {
	t.Helper()
	ws, err := wal.Create(buildOrg(t, "cluster", ds), dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// testObj builds a small polyline object for mutation tests.
func testObj(id uint64) *object.Object {
	x := float64(id%97) / 100
	return object.New(object.ID(1_000_000+id), geom.NewPolyline([]geom.Point{
		geom.Pt(x, 0.3), geom.Pt(x+0.01, 0.31),
	}), 200)
}

// TestWALServing drives mutations and queries through a server over a
// WAL-attached store, checks /stats reports the log, and verifies that a
// crash (dropping the store unflushed) loses nothing that was acknowledged.
func TestWALServing(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 5})
	dir := filepath.Join(t.TempDir(), "wal")
	ws := walOrg(t, ds, dir)
	_, c := startServer(t, ws, server.Config{})

	const n = 24
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				o := testObj(uint64(w*100 + i))
				if err := c.Insert(o, o.Bounds()); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := c.Delete(testObj(0).ID); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil {
		t.Fatal("/stats of a WAL-attached store reports no wal block")
	}
	if st.WAL.LastLSN != n+1 {
		t.Fatalf("/stats last_lsn %d, want %d", st.WAL.LastLSN, n+1)
	}
	if st.WAL.Syncs < 1 || st.WAL.Syncs > n+1 {
		t.Fatalf("/stats syncs %d outside [1, %d]", st.WAL.Syncs, n+1)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Storage.WAL == nil || m.Storage.WAL.LastLSN != st.WAL.LastLSN {
		t.Fatalf("/metrics wal block %+v does not match /stats %+v", m.Storage.WAL, st.WAL)
	}

	w := geom.R(0, 0, 1, 1)
	want := sortedIDs(ws.WindowQuery(w, store.TechComplete).IDs)
	// Crash: recover from the directory without flushing or closing ws. The
	// live log keeps its file handles; recovery only reads.
	rec, rst, err := wal.Recover(dir, func(p disk.Params) (*store.Env, error) {
		return store.NewEnvWithParams(128, p), nil
	}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rst.Replayed != n+1 || rst.TornTail {
		t.Fatalf("recovery replayed %d records (torn %v), want %d clean", rst.Replayed, rst.TornTail, n+1)
	}
	got := sortedIDs(rec.WindowQuery(w, store.TechComplete).IDs)
	if !equalU64(want, got) {
		t.Fatalf("recovered store answers %d objects, served store %d", len(got), len(want))
	}
}

// TestRefusedInsertIsAnswered: an insert the store refuses — a live ID, an
// object no cluster unit can hold — is an answer (409, 413), never a crash:
// on a plain and on a WAL-attached store, over JSON and over the binary
// protocol, the store is unchanged and the server keeps answering; and a log
// that holds the refused records recovers to the same store.
func TestRefusedInsertIsAnswered(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 5})
	dup := ds.Objects[0]
	huge := object.New(9_000_001, geom.NewPolyline([]geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.41, 0.41)}),
		ds.Spec.SmaxBytes()+1)
	for _, withWAL := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "wal")
		org := buildOrg(t, "cluster", ds)
		if withWAL {
			org = walOrg(t, ds, dir)
		}
		stats := org.Stats()
		_, jc := startServer(t, org, server.Config{})
		bc := *jc
		bc.Binary = true
		for name, c := range map[string]*server.Client{"json": jc, "binary": &bc} {
			for _, tc := range []struct {
				o    *object.Object
				code int
			}{{dup, http.StatusConflict}, {huge, http.StatusRequestEntityTooLarge}} {
				err := c.Insert(tc.o, tc.o.Bounds())
				var se *server.StatusError
				if !errors.As(err, &se) || se.Code != tc.code {
					t.Fatalf("wal=%v %s: insert of object %d answered %v, want status %d", withWAL, name, tc.o.ID, err, tc.code)
				}
			}
			if r, err := c.Window(geom.R(0, 0, 1, 1), ""); err != nil || len(r.IDs) != len(ds.Objects) {
				t.Fatalf("wal=%v %s: after the refusals the server answers %d objects, %v", withWAL, name, len(r.IDs), err)
			}
		}
		if got := org.Stats(); got != stats {
			t.Fatalf("wal=%v: refused inserts changed the store: %+v, was %+v", withWAL, got, stats)
		}
		if !withWAL {
			continue
		}
		rec, rst, err := wal.Recover(dir, func(p disk.Params) (*store.Env, error) {
			return store.NewEnvWithParams(128, p), nil
		}, wal.Options{})
		if err != nil {
			t.Fatalf("recovering a log that holds refused inserts: %v", err)
		}
		if rst.Replayed != 4 || rec.Stats() != stats {
			t.Fatalf("recovery replayed %d records into %+v, want 4 and %+v", rst.Replayed, rec.Stats(), stats)
		}
		rec.Close()
	}
}

// flakyTransport fails the first n round trips at the connection level, then
// delegates.
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

// TestClientRetryFlaky checks that the typed client converges through a
// flaky transport (connection resets) and through 429 admission rejections,
// with bounded attempts and context-aware sleeps.
func TestClientRetryFlaky(t *testing.T) {
	retry := &server.Retry{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 42}
	t.Run("connection resets", func(t *testing.T) {
		ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 5})
		_, c := startServer(t, buildOrg(t, "cluster", ds), server.Config{})
		ft := &flakyTransport{inner: c.HTTP.Transport}
		ft.fails.Store(3)
		c.HTTP = &http.Client{Transport: ft}
		c.Retry = retry
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("client did not converge through 3 resets: %v", err)
		}
		if st.Objects != len(ds.Objects) {
			t.Fatalf("converged answer reports %d objects, want %d", st.Objects, len(ds.Objects))
		}
	})
	t.Run("429 overload", func(t *testing.T) {
		var calls atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 3 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintln(w, `{"error":"overloaded"}`)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"org":"cluster org.","objects":7}`)
		}))
		defer hs.Close()
		c := server.NewClient(hs.URL, 4)
		c.Retry = retry
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("client did not converge through 429s: %v", err)
		}
		if st.Objects != 7 || calls.Load() != 4 {
			t.Fatalf("objects %d after %d calls, want 7 after 4", st.Objects, calls.Load())
		}
	})
	t.Run("attempts bounded", func(t *testing.T) {
		var calls atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"overloaded"}`)
		}))
		defer hs.Close()
		c := server.NewClient(hs.URL, 4)
		c.Retry = retry
		if _, err := c.Stats(); !server.IsOverload(err) {
			t.Fatalf("exhausted retries should surface the 429, got %v", err)
		}
		if calls.Load() != int64(retry.Attempts) {
			t.Fatalf("%d calls, want exactly %d attempts", calls.Load(), retry.Attempts)
		}
	})
	t.Run("context aborts the backoff", func(t *testing.T) {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"overloaded"}`)
		}))
		defer hs.Close()
		c := server.NewClient(hs.URL, 4)
		c.Retry = &server.Retry{Attempts: 100, BaseDelay: 50 * time.Millisecond, Seed: 1}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := c.WithContext(ctx).Stats()
		if err == nil {
			t.Fatal("cancelled retry loop reported success")
		}
		if e := time.Since(start); e > 2*time.Second {
			t.Fatalf("retry loop outlived its context by %v", e)
		}
	})
}

// lostAnswerTransport lets the server apply the first n requests and then
// loses their answers to a connection reset — the failure after which a client
// cannot know whether its request took effect.
type lostAnswerTransport struct {
	inner http.RoundTripper
	lose  atomic.Int64
}

func (l *lostAnswerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.inner.RoundTrip(r)
	if err == nil && l.lose.Add(-1) >= 0 {
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Err: fmt.Errorf("wrapped: %w", syscall.ECONNRESET)}
	}
	return resp, err
}

// TestClientNeverResendsAnAppliedMutation pins the retry rule for requests
// that change the store: after a reset that may have followed the apply, the
// client surfaces the error instead of sending the request again — a second
// /delete would answer existed:false about an object the first one removed.
// Queries through the same transport are still retried.
func TestClientNeverResendsAnAppliedMutation(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 5})
			_, c := startServer(t, buildOrg(t, "cluster", ds), server.Config{})
			direct := *c
			lossy := &lostAnswerTransport{inner: c.HTTP.Transport}
			c.HTTP = &http.Client{Transport: lossy}
			c.Retry = &server.Retry{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 42}
			c.Binary = binary
			victim, path := ds.Objects[0].ID, "/delete"
			if binary {
				path = "/bin/delete"
			}

			lossy.lose.Store(1)
			if _, err := c.Delete(victim); err == nil {
				t.Fatal("a delete whose answer was lost reported success")
			}
			m, err := direct.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Endpoints[path].Count; got != 1 {
				t.Fatalf("the server saw %d deletes, want the one application", got)
			}
			if existed, err := direct.Delete(victim); err != nil || existed {
				t.Fatalf("the lost delete was not applied: existed %v, err %v", existed, err)
			}

			lossy.lose.Store(2)
			if _, err := c.Window(geom.R(0, 0, 1, 1), ""); err != nil {
				t.Fatalf("a query was not retried through two resets: %v", err)
			}
		})
	}
}

// TestShutdownRacesMutations races Shutdown against in-flight mutations:
// workers insert objects with disjoint ID ranges until the server refuses,
// and afterwards the store must hold exactly the base data plus every
// acknowledged insert — as if the acknowledged subset had been applied
// lock-step serially (inserts of distinct IDs commute). Runs plain and
// WAL-attached; the WAL arm additionally recovers the log and requires the
// recovered store to agree.
func TestShutdownRacesMutations(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 5})
	for _, withWAL := range []bool{false, true} {
		name := "plain"
		if withWAL {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			var org store.Organization
			dir := filepath.Join(t.TempDir(), "wal")
			if withWAL {
				org = walOrg(t, ds, dir)
			} else {
				org = buildOrg(t, "cluster", ds)
			}
			s := server.New(org, server.Config{})
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()

			base := make(map[uint64]bool)
			for _, id := range org.WindowQuery(geom.R(0, 0, 1, 1), store.TechComplete).IDs {
				base[uint64(id)] = true
			}

			const workers = 8
			acked := make([]([]uint64), workers)
			var wg sync.WaitGroup
			var once sync.Once
			first := make(chan struct{}) // closed at the first acknowledged insert
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := server.NewClient(hs.URL, 2)
					for i := 0; ; i++ {
						o := testObj(uint64(w*10000 + i))
						if err := c.Insert(o, o.Bounds()); err != nil {
							return // refused: shutting down (503) or overloaded
						}
						acked[w] = append(acked[w], uint64(o.ID))
						once.Do(func() { close(first) })
					}
				}(w)
			}
			select { // let the workers get going: a commit fsyncs on the WAL arm
			case <-first:
			case <-time.After(10 * time.Second):
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown racing mutations: %v", err)
			}
			wg.Wait()

			want := make(map[uint64]bool, len(base))
			for id := range base {
				want[id] = true
			}
			total := 0
			for _, ids := range acked {
				total += len(ids)
				for _, id := range ids {
					want[id] = true
				}
			}
			if total == 0 {
				t.Fatal("no insert was acknowledged before the drain; the race tested nothing")
			}
			check := func(label string, got []object.ID) {
				if len(got) != len(want) {
					t.Fatalf("%s: %d objects, want %d (base %d + %d acked)",
						label, len(got), len(want), len(base), total)
				}
				for _, id := range got {
					if !want[uint64(id)] {
						t.Fatalf("%s: object %d present but never acknowledged", label, id)
					}
				}
			}
			check("drained store", org.WindowQuery(geom.R(0, 0, 1, 1), store.TechComplete).IDs)

			if withWAL {
				if err := spatialcluster.CloseStore(org); err != nil {
					t.Fatal(err)
				}
				rec, _, err := spatialcluster.RecoverStore(spatialcluster.StoreConfig{WALPath: dir, BufferPages: 128})
				if err != nil {
					t.Fatal(err)
				}
				defer spatialcluster.CloseStore(rec)
				check("recovered store", rec.WindowQuery(geom.R(0, 0, 1, 1), store.TechComplete).IDs)
			}
		})
	}
}

// TestClientErrorBodies: every error of the server is an ErrorResponse, whose
// message the client hands on; a body that is not one was written by
// something in between (a proxy) and is handed on as text — for every wire
// the client speaks.
func TestClientErrorBodies(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"error":"shard 2 is gone"}`, "shard 2 is gone"},
		{"Bad Gateway\n", "Bad Gateway"},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, tc.body)
		}))
		c := server.NewClient(hs.URL, 1)
		bc := *c
		bc.Binary = true
		_, jsonErr := c.Point(geom.Pt(0.5, 0.5))
		_, binErr := bc.Point(geom.Pt(0.5, 0.5))
		_, rawErr := c.Raw("/metrics")
		for wire, err := range map[string]error{"json": jsonErr, "binary": binErr, "raw": rawErr} {
			se, ok := err.(*server.StatusError)
			if !ok || se.Code != http.StatusBadGateway || se.Message != tc.want {
				t.Errorf("%s client, body %q: got %v, want a 502 saying %q", wire, tc.body, err, tc.want)
			}
		}
		hs.Close()
	}
}

package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// exchangeClient returns a client of a Front whose window answers n IDs, in
// the binary codec or in JSON, over an in-process transport.
func exchangeClient(n int, bin bool) *Client {
	f := NewFront(&fakeService{window: bigAnswer()[:n]}, "sdb", 0, -1, false)
	return &Client{Base: "http://front", HTTP: &http.Client{Transport: handlerTransport{f.Handler()}}, Binary: bin}
}

// windowAllocs is what one window exchange allocates, client and Front
// together: the count, and the bytes.
func windowAllocs(t *testing.T, c *Client, n int) (allocs, bytes float64) {
	const runs = 200
	window := func() {
		if r, err := c.Window(geom.R(0, 0, 1, 1), ""); err != nil || len(r.IDs) != n {
			t.Fatalf("window answered %d IDs (%v), want %d", len(r.IDs), err, n)
		}
	}
	allocs = testing.AllocsPerRun(runs, window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		window()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestExchangeAllocs pins what a window exchange allocates end to end —
// request, framing, Front, answer — over an in-process transport. Ceilings
// are 1.25x what the code measured when they were set (binary 26, JSON 26,
// at 500 answers), and the binary count does not grow with the answer: each
// hop allocates its answer once, whatever its length. In bytes, an answer
// costs two copies of itself: the transport's body and the client's decoded
// IDs (16.3 bytes an ID when the bound was set); a third — the frame read
// into fresh memory, say — breaks the 20-byte bound.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	bin50, bytes50 := windowAllocs(t, exchangeClient(50, true), 50)
	bin500, bytes500 := windowAllocs(t, exchangeClient(500, true), 500)
	json500, _ := windowAllocs(t, exchangeClient(500, false), 500)
	perID := (bytes500 - bytes50) / 450
	t.Logf("window exchange allocations: binary %v at 50 answers, %v at 500 (%.1f bytes an answer); JSON %v at 500",
		bin50, bin500, perID, json500)
	if bin500 != bin50 {
		t.Errorf("a binary window exchange allocates %v times at 50 answers and %v at 500: a per-answer term", bin50, bin500)
	}
	if perID > 20 {
		t.Errorf("a binary window exchange allocates %.1f bytes per answer: more than two copies of the answer", perID)
	}
	for _, c := range []struct {
		codec      string
		got, limit float64
	}{{"binary", bin500, 26 * 1.25}, {"JSON", json500, 26 * 1.25}} {
		if c.got > c.limit {
			t.Errorf("a %s window exchange allocates %v times, ceiling %v", c.codec, c.got, c.limit)
		}
	}
}

// TestLoopbackExchangeAllocs pins what a window exchange of 50 answers
// allocates over a socket — the typed client, its transport, the server and
// the Front together — in both codecs, and what a JSON insert, update and
// delete of a 20-vertex polyline allocate. Ceilings are 1.25x what the code
// measured when they were set (window: JSON 4, binary 3; insert 8, update 8,
// delete 2): the client's transport writes the request and parses the
// answer's head itself, and the Front, its server's whole handler, keeps the
// connection and serves it itself, reading the head in place into a request
// record it reuses; so what is left is the answer, decoded once. net/http's
// server in the Front's place costs 25 more an exchange (window: JSON 29,
// binary 28; insert 33, update 33, delete 27), an http.Request and
// http.ReadResponse in the client's 25 more again. Neither end of a JSON
// exchange reaches encoding/json: a body decoded by it instead costs 12 more
// a window, 24 more an insert.
func TestLoopbackExchangeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	f := NewFront(&fakeService{window: bigAnswer()[:50]}, "sdb", 0, -1, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := HTTPServer(f.Handler())
	go hs.Serve(ln)
	defer hs.Close()
	for _, c := range []struct {
		codec string
		bin   bool
		limit float64
	}{{"JSON", false, 4 * 1.25}, {"binary", true, 3 * 1.25}} {
		cl := NewClient("http://"+ln.Addr().String(), 1)
		cl.Binary = c.bin
		if got, _ := windowAllocs(t, cl, 50); got > c.limit {
			t.Errorf("a %s window exchange over loopback allocates %v times, ceiling %v", c.codec, got, c.limit)
		} else {
			t.Logf("a %s window exchange over loopback allocates %v times", c.codec, got)
		}
	}

	// The JSON mutations of a 20-vertex polyline: the client appends its
	// request from the object and scans the answer, the Front scans the
	// request and appends the answer.
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Pt(0.25+float64(i)/1000, 0.5-float64(i)/3000)
	}
	obj := object.New(1<<40, geom.NewPolyline(pts), 100)
	cl := NewClient("http://"+ln.Addr().String(), 1)
	for _, m := range []struct {
		op    string
		call  func() error
		limit float64
	}{
		{"insert", func() error { return cl.Insert(obj, obj.Bounds()) }, 8 * 1.25},
		{"update", func() error { _, err := cl.Update(obj, obj.Bounds()); return err }, 8 * 1.25},
		{"delete", func() error { _, err := cl.Delete(obj.ID); return err }, 2 * 1.25},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := m.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got > m.limit {
			t.Errorf("a JSON %s exchange over loopback allocates %v times, ceiling %v", m.op, got, m.limit)
		} else {
			t.Logf("a JSON %s exchange over loopback allocates %v times", m.op, got)
		}
	}
}

// BenchmarkExchange times window round trips through the typed client and a
// Front over a loopback listener, in both codecs, at 50 and at 1,000 answers:
// the served hop without a store behind it. One client at a time waits on
// every cross-thread wake-up as well as the Front's work, so json-par/50
// keeps two clients (GOMAXPROCS, when more) busy on one Client.
func BenchmarkExchange(b *testing.B) {
	for _, n := range []int{50, 1000} {
		f := NewFront(&fakeService{window: bigAnswer()[:n]}, "sdb", 0, -1, false)
		hs := httptest.NewServer(f.Handler())
		for _, codec := range []struct {
			name string
			bin  bool
		}{{"json", false}, {"bin", true}} {
			c := NewClient(hs.URL, 1)
			c.Binary = codec.bin
			b.Run(fmt.Sprintf("%s/%d", codec.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := c.Window(geom.R(0, 0, 1, 1), "")
					if err != nil || len(r.IDs) != n {
						b.Fatalf("window answered %d IDs (%v), want %d", len(r.IDs), err, n)
					}
				}
			})
		}
		if n == 50 {
			c := NewClient(hs.URL, 2)
			b.Run("json-par/50", func(b *testing.B) {
				b.ReportAllocs()
				if runtime.GOMAXPROCS(0) == 1 {
					b.SetParallelism(2)
				}
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if r, err := c.Window(geom.R(0, 0, 1, 1), ""); err != nil || len(r.IDs) != n {
							b.Errorf("window answered %d IDs (%v), want %d", len(r.IDs), err, n)
							return
						}
					}
				})
			})
		}
		hs.Close()
	}
}

// TestServedQueryAllocs: a query served in-process — Server.Window, Point or
// KNN on a warm store — allocates what the store's own query allocates and
// nothing more: the server adds no closure, driver result or counter snapshot
// to a request.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 64, Seed: 61})
	c := store.NewCluster(store.NewEnv(1<<16), store.ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	c.WindowQuery(geom.R(0, 0, 1, 1), store.TechComplete) // fault everything in
	s := New(c, Config{})
	defer s.Shutdown(context.Background())
	w, pt := ds.Windows(0.01, 1, 62)[0], ds.Objects[0].Geom.Segments()[0].A
	rq := &Request{}
	for _, q := range []struct {
		name          string
		store, served func()
	}{
		{"window", func() { c.WindowQuery(w, store.TechComplete) }, func() { s.Window(rq, w, store.TechComplete) }},
		{"point", func() { c.PointQuery(pt) }, func() { s.Point(rq, pt) }},
		{"10-NN", func() { c.NearestQuery(pt, 10) }, func() { s.KNN(rq, pt, 10) }},
	} {
		own, served := testing.AllocsPerRun(100, q.store), testing.AllocsPerRun(100, q.served)
		if served > own {
			t.Errorf("a served %s query allocates %v times, the store's own %v", q.name, served, own)
		}
	}
}

// BenchmarkFrontRequestBodies times the Front reading a JSON request and
// answering it, with no socket in between: a window and a 1,000-vertex
// insert, each as the Client writes it and with a space after every colon and
// comma — the form the scanner declines to encoding/json, as a caller in
// another language may write it.
func BenchmarkFrontRequestBodies(b *testing.B) {
	h := NewFront(&fakeService{}, "sdb", 0, -1, false).Handler()
	var verts strings.Builder
	for i := 0; i < 1000; i++ {
		if i > 0 {
			verts.WriteByte(',')
		}
		fmt.Fprintf(&verts, "[%g,%g]", 0.25+float64(i)/1e5, 0.5-float64(i)/3e5)
	}
	spaced := strings.NewReplacer(":", ": ", ",", ", ")
	for _, c := range []struct{ name, path, body string }{
		{"window", "/query/window", `{"window":[0.1,0.2,0.3,0.4]}`},
		{"insert1000", "/insert", `{"object":{"id":7,"kind":"polyline","vertices":[` + verts.String() + `]}}`},
	} {
		for _, form := range []struct{ name, body string }{{"canonical", c.body}, {"spaced", spaced.Replace(c.body)}} {
			body := form.body
			b.Run(c.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						b.Fatalf("%s: status %d (%s)", body[:20], rec.Code, rec.Body.String())
					}
				}
			})
		}
	}
}

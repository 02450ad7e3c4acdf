package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/store"
)

// rawConn writes requests byte for byte and reads the answers with
// http.ReadResponse.
type rawConn struct {
	net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{Conn: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) send(t *testing.T, raw string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
}

// answer reads the next final answer to a request of the method, skipping
// interim (1xx) ones.
func (c *rawConn) answer(t *testing.T, method string) (*http.Response, []byte) {
	t.Helper()
	for {
		resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 200 {
			return resp, body
		}
	}
}

// closed reports whether the peer has closed the connection: a read finds
// its end, not a byte, within a second.
func (c *rawConn) closed() bool {
	c.SetReadDeadline(time.Now().Add(time.Second))
	_, err := c.br.ReadByte()
	return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

// post is a canonical POST of body to path, extra header lines first.
func post(path, extra, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: h\r\n%sContent-Length: %d\r\n\r\n%s", path, extra, len(body), body)
}

// keptConnTo dials addr and sends a canonical data-plane request first, so
// the connection is kept by the time the caller writes to it. The request
// lacks its point, so it is answered 400 before it reaches the Service.
func keptConnTo(t *testing.T, addr string) *rawConn {
	t.Helper()
	c := dialRaw(t, addr)
	c.send(t, post("/query/point", "", "{}"))
	if resp, body := c.answer(t, http.MethodPost); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a point query without its point answered %d: %s", resp.StatusCode, body)
	}
	return c
}

// TestKeptConnAnswersLikeNetHTTP sends raw requests on kept connections and
// holds each answer to the one net/http gives on a fresh connection to the
// same Front behind a wrapper: status, Content-Type, Content-Length, body and
// whether the connection ends. Every kept connection is hijacked; the
// wrapped Front, which is not its server's whole handler, sees every request.
func TestKeptConnAnswersLikeNetHTTP(t *testing.T) {
	f := NewFront(&fakeService{window: bigAnswer()[:500]}, "sdb", 0, -1, false)
	var wrapped, hijacked, refHijacked atomic.Int64
	ref := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wrapped.Add(1)
		f.Handler().ServeHTTP(w, r)
	}))
	kept := httptest.NewUnstartedServer(f.Handler())
	for _, s := range []struct {
		hs *httptest.Server
		n  *atomic.Int64
	}{{ref, &refHijacked}, {kept, &hijacked}} {
		s.hs.Config.MaxHeaderBytes = 4 << 10
		s.hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateHijacked {
				s.n.Add(1)
			}
		}
		s.hs.Start()
		defer s.hs.Close()
	}
	obj := `{"object":{"id":1,"kind":"polyline","vertices":[[0,0],[1,1]]}}`
	point, window := `{"point":[0.5,0.5]}`, `{"window":[0,0,1,1]}`
	chunk := func(s string) string { return fmt.Sprintf("%x\r\n%s\r\n", len(s), s) }
	cases := []struct {
		name, raw string
		methods   []string // of the answers to read
		traced    bool     // the body holds timings: compare it without them
	}{
		{"chunked insert", "POST /insert HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
			chunk(obj[:20]) + chunk(obj[20:]) + "0\r\n\r\n", []string{"POST"}, false},
		{"expect 100-continue", post("/query/point", "Expect: 100-continue\r\n", point), []string{"POST"}, false},
		{"HTTP/1.0", fmt.Sprintf("POST /query/point HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s", len(point), point),
			[]string{"POST"}, false},
		{"HTTP/1.0 keep-alive", fmt.Sprintf("POST /query/point HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
			len(point), point), []string{"POST"}, false},
		{"Connection: close", post("/query/point", "Connection: close\r\n", point), []string{"POST"}, false},
		{"pipelined windows", post("/query/window", "", window) + post("/query/window", "", window),
			[]string{"POST", "POST"}, false},
		{"head over MaxHeaderBytes", "GET /healthz HTTP/1.1\r\nHost: h\r\nX-Pad: " + strings.Repeat("a", 16<<10) + "\r\n\r\n",
			[]string{"GET"}, false},
		{"GET /healthz", "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n", []string{"GET"}, false},
		{"HEAD /healthz", "HEAD /healthz HTTP/1.1\r\nHost: h\r\n\r\n", []string{"HEAD"}, false},
		{"unknown path", "GET /nowhere HTTP/1.1\r\nHost: h\r\n\r\n", []string{"GET"}, false},
		{"wrong method", "GET /query/window HTTP/1.1\r\nHost: h\r\n\r\n", []string{"GET"}, false},
		{"traced window", post("/query/window?trace=1", "Content-Type: application/json\r\nX-Sdb-Trace-Id: 77\r\n", window),
			[]string{"POST"}, true},
	}
	handled, dialed := int64(0), int64(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, kc := dialRaw(t, ref.Listener.Addr().String()), keptConnTo(t, kept.Listener.Addr().String())
			dialed++
			fresh.send(t, tc.raw)
			kc.send(t, tc.raw)
			for _, method := range tc.methods {
				want, wantBody := fresh.answer(t, method)
				got, gotBody := kc.answer(t, method)
				if want.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
					handled++
				}
				if tc.traced {
					wantBody, gotBody = untimed(t, wantBody), untimed(t, gotBody)
					want.ContentLength, got.ContentLength = 0, 0
				}
				likeNetHTTP(t, got, gotBody, want, wantBody)
			}
		})
	}
	if hijacked.Load() != dialed || refHijacked.Load() != 0 {
		t.Errorf("%d of %d kept connections hijacked, %d behind the wrapper", hijacked.Load(), dialed, refHijacked.Load())
	}
	// The warm-up requests went to the kept server alone.
	if wrapped.Load() != handled {
		t.Errorf("the wrapped Front saw %d requests, want %d", wrapped.Load(), handled)
	}
}

// likeNetHTTP holds an answer read on a kept connection to net/http's:
// status, Content-Type, Content-Length, body and whether the connection ends.
func likeNetHTTP(t *testing.T, got *http.Response, gotBody []byte, want *http.Response, wantBody []byte) {
	t.Helper()
	for _, d := range []struct {
		what      string
		got, want any
	}{
		{"status", got.StatusCode, want.StatusCode},
		{"Content-Type", got.Header.Get("Content-Type"), want.Header.Get("Content-Type")},
		{"Content-Length", got.ContentLength, want.ContentLength},
		{"body", string(gotBody), string(wantBody)},
		{"connection ends", got.Close, want.Close},
	} {
		if !reflect.DeepEqual(d.got, d.want) {
			t.Errorf("%s: kept connection answers %v, net/http %v", d.what, d.got, d.want)
		}
	}
}

// metricsFront is a Front over svc that also serves GET /metrics.
func metricsFront(svc Service) *Front {
	f := NewFront(svc, "sdb", 0, -1, false)
	f.Handle(http.MethodGet, "/metrics", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, map[string]int{"requests": 1}, nil)
	})
	return f
}

// wrapped serves f behind a wrapper, so net/http answers every request.
func wrapped(f *Front) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.Handler().ServeHTTP(w, r) })
}

// TestKeptConnHandsBack: the Front serves the canonical data-plane requests
// on a kept connection and hands every other one back to net/http on it, and
// each answer equals net/http's on a fresh connection.
func TestKeptConnHandsBack(t *testing.T) {
	t.Run("pipelined", testHandsBackPipelined)
	t.Run("after the watch", testHandsBackAfterWatch)
}

// testHandsBackPipelined pipelines on one kept connection a window, GET
// /metrics, HEAD /healthz, a window carrying a User-Agent, an Expect:
// 100-continue point query, a final window and a head with a 16 KiB line.
// The connection is kept again for the final window, the 431 is net/http's
// too, and once the server closes no goroutine of the Front is left.
func testHandsBackPipelined(t *testing.T) {
	before := steadyFront(t, func(int) bool { return true })
	f := metricsFront(&fakeService{})
	var hijacked atomic.Int64
	ref := httptest.NewUnstartedServer(wrapped(f))
	kept := httptest.NewUnstartedServer(f.Handler())
	kept.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateHijacked {
			hijacked.Add(1)
		}
	}
	for _, hs := range []*httptest.Server{ref, kept} {
		hs.Config.MaxHeaderBytes = 4 << 10
		hs.Start()
		defer hs.Close()
	}
	window, point := `{"window":[0,0,1,1]}`, `{"point":[0.5,0.5]}`
	// The first two requests fill the 4 KiB net/http reads ahead of the
	// hijack, so the third is on the socket when the GET goes back.
	metrics := "GET /metrics HTTP/1.1\r\nHost: h\r\nX-Pad: \r\n\r\n"
	metrics = strings.Replace(metrics, "X-Pad: ", "X-Pad: "+strings.Repeat("a", 4096-len(post("/query/window", "", window))-len(metrics)), 1)
	reqs := []struct{ method, raw string }{
		{"POST", post("/query/window", "", window)},
		{"GET", metrics},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: h\r\n\r\n"},
		{"POST", post("/query/window", "User-Agent: raw\r\n", window)},
		{"POST", post("/query/point", "Expect: 100-continue\r\n", point)},
		{"POST", post("/query/window", "", window)},
		{"GET", "GET /healthz HTTP/1.1\r\nHost: h\r\nX-Pad: " + strings.Repeat("a", 16<<10) + "\r\n\r\n"},
	}
	kc := dialRaw(t, kept.Listener.Addr().String())
	var all strings.Builder
	for _, rq := range reqs {
		all.WriteString(rq.raw)
	}
	kc.send(t, all.String())
	for _, rq := range reqs {
		fresh := dialRaw(t, ref.Listener.Addr().String())
		fresh.send(t, rq.raw)
		want, wantBody := fresh.answer(t, rq.method)
		got, gotBody := kc.answer(t, rq.method)
		likeNetHTTP(t, got, gotBody, want, wantBody)
	}
	if !kc.closed() {
		t.Error("the connection outlived its 431")
	}
	if n := hijacked.Load(); n != 2 {
		t.Errorf("the connection was hijacked %d times, want 2: by its first window and again by the last", n)
	}
	kept.Close()
	steadyFront(t, func(g int) bool { return g <= before }) // no goroutine of the Front outlives the server
}

// testHandsBackAfterWatch: a window that outlasts watchDelay, with GET
// /metrics written behind it and HEAD /healthz once its watch has begun. The
// watch reads the HEAD's first byte, and the GET goes back to net/http with
// that byte kept.
func testHandsBackAfterWatch(t *testing.T) {
	svc := &fakeService{entered: make(chan struct{}, 1), release: make(chan struct{})}
	kept := httptest.NewServer(metricsFront(svc).Handler())
	defer kept.Close()
	ref := httptest.NewServer(wrapped(metricsFront(&fakeService{})))
	defer ref.Close()
	reqs := []struct{ method, raw string }{
		{"POST", post("/query/window", "", `{"window":[0,0,1,1]}`)},
		{"GET", "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n"},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: h\r\n\r\n"},
	}
	kc := keptConnTo(t, kept.Listener.Addr().String())
	kc.send(t, reqs[0].raw+reqs[1].raw)
	<-svc.entered
	waitWatches(t, 1)
	kc.send(t, reqs[2].raw)
	waitWatches(t, 0) // the watch read a byte
	close(svc.release)
	for _, rq := range reqs {
		fresh := dialRaw(t, ref.Listener.Addr().String())
		fresh.send(t, rq.raw)
		want, wantBody := fresh.answer(t, rq.method)
		got, gotBody := kc.answer(t, rq.method)
		likeNetHTTP(t, got, gotBody, want, wantBody)
	}
}

// waitWatches waits up to 5 s until n hang-up watches run.
func waitWatches(t *testing.T, n int) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); goroutinesIn("(*connReader).readOne") != n; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d hang-up watches run, want %d", goroutinesIn("(*connReader).readOne"), n)
		}
	}
}

// TestKeptConnOneGoroutine: a kept connection idle between requests runs one
// goroutine of the Front, not a second for the hang-up watch, once a request
// on it was answered within watchDelay. Each connection's first window is
// held past the delay, so each starts a watch that its next request must
// end. A request slowed past the delay by the scheduler leaves its watch to
// the next one, so the test sends rounds of requests until one leaves no
// watch running, and then wants n goroutines on 3 samples in a row.
func TestKeptConnOneGoroutine(t *testing.T) {
	svc := &fakeService{entered: make(chan struct{}), release: make(chan struct{})}
	hs := httptest.NewServer(NewFront(svc, "sdb", 0, -1, false).Handler())
	defer hs.Close()
	keptConnTo(t, hs.Listener.Addr().String()) // the server's close notice runs
	before := steadyFront(t, func(int) bool { return true })
	const n = 4
	window := post("/query/window", "", `{"window":[0,0,1,1]}`)
	var conns []*rawConn
	for i := 0; i < n; i++ {
		c := keptConnTo(t, hs.Listener.Addr().String())
		c.send(t, window)
		<-svc.entered
		time.Sleep(10 * watchDelay) // the watch begins
		svc.release <- struct{}{}
		c.answer(t, http.MethodPost)
		conns = append(conns, c)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // from now on every window passes at once
		for {
			select {
			case <-svc.entered:
				svc.release <- struct{}{}
			case <-stop:
				return
			}
		}
	}()
	for end := time.Now().Add(5 * time.Second); ; {
		for _, c := range conns {
			c.send(t, window)
			if resp, body := c.answer(t, http.MethodPost); resp.StatusCode != http.StatusOK {
				t.Fatalf("a window answered %d: %s", resp.StatusCode, body)
			}
		}
		if quietFront(func(g int) bool { return g-before == n }) {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%d idle kept connections run %d goroutines of the Front (%d hang-up watches), want %d",
				n, frontGoroutines()-before, goroutinesIn("(*connReader).readOne"), n)
		}
	}
}

// quietFront reports whether, on 3 samples in a row a millisecond apart, no
// hang-up watch runs and want holds of the count of the Front's goroutines.
func quietFront(want func(goroutines int) bool) bool {
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(time.Millisecond)
		}
		if goroutinesIn("(*connReader).readOne") != 0 || !want(frontGoroutines()) {
			return false
		}
	}
	return true
}

// steadyFront waits up to 5 s until quietFront holds with want and returns
// the count of the Front's goroutines then: the same on 3 samples in a row
// when want takes any count.
func steadyFront(t *testing.T, want func(goroutines int) bool) int {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g := frontGoroutines()
		if quietFront(func(now int) bool { return now == g && want(now) }) {
			return g
		}
		if time.Now().After(end) {
			t.Fatalf("the Front runs %d goroutines (%d hang-up watches), not settling as wanted",
				frontGoroutines(), goroutinesIn("(*connReader).readOne"))
		}
	}
}

// TestKeptConnAnswersWhileClosing: a request read on a kept connection once
// its server has begun to close — the close notice done, as
// closeNotice.Close leaves it before it closes the idle connections — is
// answered 503 and ends the connection, never dropped unanswered; a
// connection's first request as well as a later one.
func TestKeptConnAnswersWhileClosing(t *testing.T) {
	for _, first := range []bool{false, true} {
		t.Run(fmt.Sprint("first=", first), func(t *testing.T) {
			f := NewFront(&fakeService{}, "sdb", 0, -1, false)
			hs := httptest.NewServer(f.Handler())
			defer hs.Close()
			c := keptConnTo(t, hs.Listener.Addr().String())
			for closing := false; !closing; time.Sleep(time.Millisecond) {
				f.kept.mu.Lock()
				if closing = f.kept.busy == 0; closing { // the warm-up is answered: c waits for a head
					for _, n := range f.kept.notices {
						n.done.Store(true)
					}
				}
				f.kept.mu.Unlock()
			}
			if first {
				c = dialRaw(t, hs.Listener.Addr().String())
			}
			c.send(t, post("/query/point", "", `{"point":[0.5,0.5]}`))
			resp, body := c.answer(t, http.MethodPost)
			if resp.StatusCode != http.StatusServiceUnavailable || !resp.Close || !strings.Contains(string(body), "server is shutting down") {
				t.Fatalf("answered %d (connection ends: %v): %s", resp.StatusCode, resp.Close, body)
			}
			if !c.closed() {
				t.Fatal("the connection outlived its 503")
			}
		})
	}
}

// untimed is a traced JSON answer without its timings.
func untimed(t *testing.T, body []byte) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("traced answer %q: %v", body, err)
	}
	tr, _ := v["trace"].(map[string]any)
	if tr == nil || tr["trace_id"] != float64(77) {
		t.Fatalf("traced answer %q lacks trace 77", body)
	}
	delete(tr, "total_ms")
	delete(tr, "spans")
	out, _ := json.Marshal(v)
	return out
}

// ctxService holds each point query until its request's context ends, and
// reports when it did: the zero time when that took over a second.
type ctxService struct {
	*fakeService
	entered chan struct{}
	ended   chan time.Time
}

func (s *ctxService) Point(rq *Request, _ geom.Point) (store.QueryResult, error) {
	s.entered <- struct{}{}
	select {
	case <-rq.Ctx.Done():
		s.ended <- time.Now()
	case <-time.After(time.Second):
		s.ended <- time.Time{}
	}
	return store.QueryResult{}, rq.Ctx.Err()
}

// TestKeptConnHangUpEndsContext: a peer that hangs up while its request on a
// kept connection runs ends the request's context within watchDelay, plus a
// slack for the scheduler, of the hang-up — before its watch has begun and
// after.
func TestKeptConnHangUpEndsContext(t *testing.T) {
	const slack = 250 * time.Millisecond
	for _, wait := range []time.Duration{0, 10 * watchDelay} {
		t.Run(fmt.Sprint("hang-up after ", wait), func(t *testing.T) {
			svc := &ctxService{fakeService: &fakeService{}, entered: make(chan struct{}, 1), ended: make(chan time.Time, 1)}
			hs := httptest.NewServer(NewFront(svc, "sdb", 0, -1, false).Handler())
			defer hs.Close()
			c := keptConnTo(t, hs.Listener.Addr().String())
			c.send(t, post("/query/point", "", `{"point":[0.5,0.5]}`))
			<-svc.entered
			time.Sleep(wait)
			hungUp := time.Now()
			c.Close()
			if ended := <-svc.ended; ended.IsZero() || ended.Sub(hungUp) > watchDelay+slack {
				t.Fatalf("the request's context outlived its peer by %v", ended.Sub(hungUp))
			}
		})
	}
}

// TestStalledBodyHoldsNoPermit: a request whose body stalls holds no
// admission permit while it does, on a kept connection and behind a wrapper
// alike, and is answered once the body is a ReadHeaderTimeout late.
func TestStalledBodyHoldsNoPermit(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		t.Run(fmt.Sprint("wrapped=", wrapped), func(t *testing.T) {
			f := NewFront(&fakeService{}, "sdb", 2, -1, false)
			h := f.Handler()
			if wrapped {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.Handler().ServeHTTP(w, r) })
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hs := HTTPServer(h)
			hs.ReadHeaderTimeout = 300 * time.Millisecond
			go hs.Serve(ln)
			defer hs.Close()
			var stalled []*rawConn
			for i := 0; i < 2; i++ {
				c := dialRaw(t, ln.Addr().String())
				c.send(t, "POST /query/point HTTP/1.1\r\nHost: h\r\nContent-Length: 100\r\n\r\n{\"poi")
				stalled = append(stalled, c)
			}
			time.Sleep(50 * time.Millisecond) // both heads are read and handed to the Front
			cl := NewClient("http://"+ln.Addr().String(), 1)
			for i := 0; i < 4; i++ {
				if _, err := cl.Point(geom.Pt(0.5, 0.5)); err != nil {
					t.Fatalf("point query %d beside two stalled bodies: %v", i, err)
				}
			}
			for _, c := range stalled {
				if resp, _ := c.answer(t, http.MethodPost); resp.StatusCode != http.StatusBadRequest {
					t.Errorf("a stalled body answered %d, want 400", resp.StatusCode)
				}
			}
		})
	}
}

// TestFrontShutdownDrainsKeptConns: Front.Shutdown closes an idle kept
// connection at once, answers the request in flight on another, then closes
// that one too.
func TestFrontShutdownDrainsKeptConns(t *testing.T) {
	svc := &fakeService{entered: make(chan struct{}, 1), release: make(chan struct{})}
	f := NewFront(svc, "sdb", 0, -1, false)
	hs := httptest.NewServer(f.Handler())
	defer hs.Close()
	addr := hs.Listener.Addr().String()
	idle, busy := keptConnTo(t, addr), keptConnTo(t, addr)
	busy.send(t, post("/query/point", "", `{"point":[0.5,0.5]}`))
	<-svc.entered
	done := make(chan error, 1)
	go func() { done <- f.Shutdown(context.Background()) }()
	if !idle.closed() {
		t.Fatal("an idle kept connection outlived the shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(svc.release)
	if resp, body := busy.answer(t, http.MethodPost); resp.StatusCode != http.StatusOK {
		t.Fatalf("the request in flight answered %d: %s", resp.StatusCode, body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !busy.closed() {
		t.Fatal("a kept connection outlived the shutdown once answered")
	}
}

// heldOrg is an organization whose window queries wait, inside the store,
// until the test lets them through.
type heldOrg struct {
	store.Organization
	entered, release chan struct{}
}

func (o *heldOrg) WindowQuery(w geom.Rect, tech store.Technique) store.QueryResult {
	o.entered <- struct{}{}
	<-o.release
	return o.Organization.WindowQuery(w, tech)
}

// frontGoroutines counts the goroutines serving kept connections or waiting
// for a server to close.
func frontGoroutines() int { return goroutinesIn("(*keptConn)", "(*connReader)", "(*closeNotice)") }

// goroutinesIn counts the goroutines running a method of this package that
// one of the receivers names.
func goroutinesIn(receivers ...string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if slices.ContainsFunc(receivers, func(r string) bool { return strings.Contains(g, "internal/server."+r) }) {
			n++
		}
	}
	return n
}

// TestShutdownDrainsKeptConns: with a query in flight on one kept connection
// and another idle, the daemon's shutdown — http.Server.Shutdown, then
// Server.Shutdown — answers the query, closes both connections and leaves no
// goroutine of the Front behind.
func TestShutdownDrainsKeptConns(t *testing.T) {
	before := steadyFront(t, func(int) bool { return true })
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 3})
	org := &heldOrg{Organization: store.NewCluster(store.NewEnv(64), store.ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()}),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	for i, o := range ds.Objects {
		org.Insert(o, ds.MBRs[i])
	}
	org.Flush()
	s := New(org, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := HTTPServer(s.Handler())
	go hs.Serve(ln)
	idle, busy := keptConnTo(t, ln.Addr().String()), keptConnTo(t, ln.Addr().String())
	busy.send(t, post("/query/window", "", `{"window":[0.2,0.2,0.4,0.4]}`))
	<-org.entered
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if err == nil {
			err = s.Shutdown(ctx)
		}
		done <- err
	}()
	if !idle.closed() {
		t.Fatal("an idle kept connection outlived the shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a query in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(org.release)
	resp, body := busy.answer(t, http.MethodPost)
	want := org.Organization.WindowQuery(geom.R(0.2, 0.2, 0.4, 0.4), store.TechComplete)
	var got QueryResponse
	if err := json.Unmarshal(body, &got); resp.StatusCode != http.StatusOK || err != nil || len(got.IDs) != len(want.IDs) {
		t.Fatalf("the query in flight answered %d, %d IDs (%v), want 200 and %d", resp.StatusCode, len(got.IDs), err, len(want.IDs))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !busy.closed() {
		t.Fatal("a kept connection outlived the shutdown once answered")
	}
	steadyFront(t, func(g int) bool { return g <= before }) // no goroutine of the Front outlives the shutdown
}

// panicService panics in every point query, as a damaged page can make a
// query do.
type panicService struct{ *fakeService }

func (panicService) Point(*Request, geom.Point) (store.QueryResult, error) { panic("damaged page") }

// TestKeptConnPanicKeepsShutdown: a handler that panics on a kept connection
// ends the connection, as net/http ends one, and leaves no request counted
// in flight for Front.Shutdown to wait for.
func TestKeptConnPanicKeepsShutdown(t *testing.T) {
	f := NewFront(panicService{&fakeService{}}, "sdb", 0, -1, false)
	hs := httptest.NewUnstartedServer(f.Handler())
	hs.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http reports the panic
	hs.Start()
	defer hs.Close()
	c := keptConnTo(t, hs.Listener.Addr().String())
	c.send(t, post("/query/point", "", `{"point":[0.5,0.5]}`))
	if !c.closed() {
		t.Fatal("the connection outlived its handler's panic")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

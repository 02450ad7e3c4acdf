package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/server"
)

// These tests hold the typed client's transport to what a keep-alive pool
// owes its callers on the failure side, seen from outside: through the
// answers, the server's /stats and the server's view of its connections.

// connWatch is an http.Server's ConnState hook: the state of every
// connection the server holds open.
type connWatch struct {
	mu    sync.Mutex
	state map[net.Conn]http.ConnState
	dials int // connections accepted
}

func (w *connWatch) hook(c net.Conn, s http.ConnState) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == nil {
		w.state = map[net.Conn]http.ConnState{}
	}
	if s == http.StateNew {
		w.dials++
	}
	if s == http.StateClosed || s == http.StateHijacked {
		delete(w.state, c)
	} else {
		w.state[c] = s
	}
}

// open counts the connections the server holds, idle ones alone when idle.
func (w *connWatch) open(idle bool) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, s := range w.state {
		if !idle || s == http.StateIdle {
			n++
		}
	}
	return n
}

// eventually waits, polling, until cond holds, and fails the test when it
// has not within five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("after 5 s: %s", what)
		}
	}
}

// watchedServer serves h on 127.0.0.1, its connections watched; idle, when
// positive, is the server's keep-alive bound.
func watchedServer(t *testing.T, h http.Handler, idle time.Duration) (*httptest.Server, *connWatch) {
	w := &connWatch{}
	hs := httptest.NewUnstartedServer(h)
	hs.Config.ConnState = w.hook
	hs.Config.IdleTimeout = idle
	hs.Start()
	t.Cleanup(hs.Close)
	return hs, w
}

// statsHandler answers /stats with a fixed body, and counts the answers.
func statsHandler(calls *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"org":"fake","objects":7}`)
	}
}

// TestTransportSurvivesServerRestart (a): the server behind a client's pooled
// connection is shut down and, after a downtime, started again on the same
// address. The next mutation, JSON and binary, through the same Client —
// which has no Retry — arrives once and applies once.
func TestTransportSurvivesServerRestart(t *testing.T) {
	const downtime = 50 * time.Millisecond // a restart is not instant; nor is noticing the close
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 5})
	s := server.New(buildOrg(t, "cluster", ds), server.Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	var inserts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/insert") {
			inserts.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serve := func(ln net.Listener) *http.Server {
		hs := server.HTTPServer(h)
		go hs.Serve(ln)
		return hs
	}
	hs := serve(ln)
	t.Cleanup(func() { hs.Close() })
	c := server.NewClient("http://"+addr, 4)
	for i, binary := range []bool{false, true} {
		if _, err := c.Stats(); err != nil { // parks a connection to the running server
			t.Fatal(err)
		}
		if err := hs.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(downtime)
		if ln, err = net.Listen("tcp", addr); err != nil {
			t.Fatalf("listening again on %s: %v", addr, err)
		}
		hs = serve(ln)
		c.Binary = binary
		o := testObj(uint64(700 + i))
		if err := c.Insert(o, o.Bounds()); err != nil {
			t.Fatalf("binary=%v: the first insert after a restart failed: %v", binary, err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(ds.Objects) + i + 1; st.Objects != want || inserts.Load() != int64(i+1) {
			t.Fatalf("binary=%v: %d objects after %d inserts arrived, want %d after %d",
				binary, st.Objects, inserts.Load(), want, i+1)
		}
	}
}

// TestTransportOutlivesServerIdleTimeout (b): a server that closes idle
// connections sooner than the client would retire them; the next call after
// each close succeeds.
func TestTransportOutlivesServerIdleTimeout(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("without the socket peek, the transport retires idle connections by age alone")
	}
	var calls atomic.Int64
	hs, w := watchedServer(t, statsHandler(&calls), 20*time.Millisecond)
	c := server.NewClient(hs.URL, 2)
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		eventually(t, "the server keeps an idle connection past its IdleTimeout", func() bool { return w.open(false) == 0 })
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("the call after the server closed its idle connection: %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("the server answered %d calls, want 4", calls.Load())
	}
}

// TestTransportCancelMidExchange (c): a context cancelled while the server
// holds the request ends the call at once with context.Canceled; the
// connection is closed, not pooled, and the next call succeeds.
func TestTransportCancelMidExchange(t *testing.T) {
	var hold atomic.Bool
	entered := make(chan struct{}, 1)
	var calls atomic.Int64
	answer := statsHandler(&calls)
	hs, w := watchedServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			entered <- struct{}{}
			<-r.Context().Done() // the client's hang-up ends it
			return
		}
		answer(rw, r)
	}), 0)
	c := server.NewClient(hs.URL, 2)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	start := time.Now()
	_, err := c.WithContext(ctx).Stats()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled call returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("a cancelled call took %v to return", d)
	}
	hold.Store(false)
	eventually(t, "the cancelled exchange's connection stays open", func() bool { return w.open(false) == 0 })
	if _, err := c.Stats(); err != nil {
		t.Fatalf("the call after a cancelled one: %v", err)
	}
}

// TestTransportOddAnswersKeepThePoolUsable (d): a 4xx answer, one sent before
// the request's body was read, an answer that closes its connection, a
// chunked answer and a body closed unread each leave a client whose next call
// succeeds.
func TestTransportOddAnswersKeepThePoolUsable(t *testing.T) {
	chunks := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		server.Reply(w, nil, &server.StatusError{Code: http.StatusNotFound, Message: "no such thing"})
	})
	mux.HandleFunc("/early", func(w http.ResponseWriter, r *http.Request) { // reads none of the body
		server.Reply(w, nil, &server.StatusError{Code: http.StatusRequestEntityTooLarge, Message: "too big"})
	})
	mux.HandleFunc("/close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		fmt.Fprint(w, "bye")
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < len(chunks); i += 4096 {
			w.Write(chunks[i : i+4096])
			w.(http.Flusher).Flush()
		}
	})
	hs, w := watchedServer(t, mux, 0)
	c := server.NewClient(hs.URL, 1)
	unread := func() error {
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/chunked", nil)
		if err != nil {
			return err
		}
		resp, err := c.HTTP.Transport.RoundTrip(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	for _, odd := range []struct {
		name string
		call func() error
	}{
		{"404", func() error {
			_, err := c.Raw("/missing")
			if se, ok := err.(*server.StatusError); !ok || se.Code != http.StatusNotFound || se.Message != "no such thing" {
				return fmt.Errorf("got %v, want the 404", err)
			}
			return nil
		}},
		{"an answer before the request's end", func() error {
			err := c.Post("/early", map[string]string{"pad": strings.Repeat("x", 8<<20)}, nil)
			if se, ok := err.(*server.StatusError); !ok || se.Code != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("got %v, want the 413", err)
			}
			return nil
		}},
		{"Connection: close", func() error {
			b, err := c.Raw("/close")
			if err == nil && string(b) != "bye" {
				err = fmt.Errorf("answered %q", b)
			}
			return err
		}},
		{"chunked", func() error {
			b, err := c.Raw("/chunked")
			if err == nil && !bytes.Equal(b, chunks) {
				err = fmt.Errorf("answered %d bytes, want the %d sent", len(b), len(chunks))
			}
			return err
		}},
		{"unread body", unread},
	} {
		for i := 0; i < 3; i++ {
			if err := odd.call(); err != nil {
				t.Fatalf("%s: %v", odd.name, err)
			}
			if b, err := c.Raw("/ok"); err != nil || string(b) != "ok" {
				t.Fatalf("the call after %s: %q, %v", odd.name, b, err)
			}
		}
	}
	eventually(t, "the server holds more idle connections than the client keeps", func() bool { return w.open(true) <= 1 })
}

// TestTransportPoolBound (e): 16 goroutines share one client that keeps 2
// idle connections; once they are done, the server sees no more than 2 kept.
func TestTransportPoolBound(t *testing.T) {
	const callers = 16
	var calls, arrived atomic.Int64
	all := make(chan struct{})
	answer := statsHandler(&calls)
	hs, w := watchedServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == callers {
			close(all)
		}
		select { // the first round waits for every caller: 16 connections at once
		case <-all:
		case <-time.After(5 * time.Second):
		}
		answer(rw, r)
	}), 0)
	c := server.NewClient(hs.URL, 2)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Stats(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls.Load() != callers*20 {
		t.Fatalf("the server answered %d calls, want %d", calls.Load(), callers*20)
	}
	eventually(t, "the server holds more than 2 connections for a client keeping 2", func() bool { return w.open(false) <= 2 })
}

// scripted is a server on 127.0.0.1 that answers each request with the raw
// bytes its path names, closing the connection after an HTTP/1.0 answer. It
// logs the connection each request arrived on and the connections the client
// closed.
type scripted struct {
	URL     string
	answers map[string]string
	wg      sync.WaitGroup // the accepting and serving goroutines
	mu      sync.Mutex
	conns   []net.Conn
	arrived []int        // per request, its connection
	closed  map[int]bool // connections the client closed
}

func newScripted(t *testing.T, answers map[string]string) *scripted {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scripted{URL: "http://" + ln.Addr().String(), answers: answers, closed: map[int]bool{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.wg.Add(1)
			go s.serve(len(s.conns)-1, nc)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		for _, nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

func (s *scripted) serve(id int, nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	br := bufio.NewReader(nc)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			s.mu.Lock()
			s.closed[id] = true
			s.mu.Unlock()
			return
		}
		io.Copy(io.Discard, req.Body)
		s.mu.Lock()
		s.arrived = append(s.arrived, id)
		s.mu.Unlock()
		answer := s.answers[req.URL.Path]
		nc.Write([]byte(answer))
		if strings.HasPrefix(answer, "HTTP/1.0") {
			return
		}
	}
}

// last is the connection the latest request arrived on.
func (s *scripted) last() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrived[len(s.arrived)-1]
}

func (s *scripted) closedByClient(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed[id]
}

// TestTransportOddAnswersAreNotReused (f): answers a server should not send,
// or that end their connection, scripted byte for byte over TCP — each is
// read as its framing says or refused, never waited on, and its connection
// is not parked: the client closes it, unless the server did, and the next
// call dials afresh. Each holds through the typed client's own exchange and
// through its transport's RoundTrip.
func TestTransportOddAnswersAreNotReused(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	s := newScripted(t, map[string]string{
		"/ok":        ok,
		"/http10":    "HTTP/1.0 200 OK\r\n\r\nhello",
		"/differing": "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nokk",
		"/gzip":      "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n\x1f\x8b",
		"/stray":     ok + "EXTRA",
		"/long":      "HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 2\r\n\r\nok",
		"/interim":   "HTTP/1.1 100 Continue\r\n\r\n" + ok,
	})
	for _, odd := range []struct {
		path, want string // want "" asks for an error
	}{
		{"/http10", "hello"}, {"/differing", ""}, {"/gzip", ""}, {"/stray", "ok"}, {"/long", ""}, {"/interim", ""},
	} {
		if odd.path == "/stray" && runtime.GOOS != "linux" {
			continue // without the socket peek, a stray byte that arrives late is found by the next exchange
		}
		for _, via := range []string{"client", "RoundTrip"} {
			c := server.NewClient(s.URL, 1)
			if b, err := c.Raw("/ok"); err != nil || string(b) != "ok" {
				t.Fatalf("%s via %s: the call before: %q, %v", odd.path, via, b, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			var b []byte
			var err error
			if via == "client" {
				b, err = c.WithContext(ctx).Raw(odd.path)
			} else {
				var req *http.Request
				if req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.URL+odd.path, nil); err != nil {
					t.Fatal(err)
				}
				var resp *http.Response
				if resp, err = c.HTTP.Transport.RoundTrip(req); err == nil {
					b, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
			}
			cancel()
			oddConn := s.last()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("%s via %s: the exchange waited for bytes the answer never promised", odd.path, via)
			case odd.want == "" && err == nil:
				t.Fatalf("%s via %s: answered %q, want an error", odd.path, via, b)
			case odd.want != "" && (err != nil || string(b) != odd.want):
				t.Fatalf("%s via %s: answered %q, %v; want %q", odd.path, via, b, err, odd.want)
			}
			if b, err := c.Raw("/ok"); err != nil || string(b) != "ok" {
				t.Fatalf("the call after %s via %s: %q, %v", odd.path, via, b, err)
			}
			if s.last() == oddConn {
				t.Fatalf("%s via %s: the next call reused the odd answer's connection", odd.path, via)
			}
			if odd.path != "/http10" {
				eventually(t, odd.path+" via "+via+": the client keeps the odd answer's connection open",
					func() bool { return s.closedByClient(oddConn) })
			}
		}
	}
}

// TestTransportBodyAfterClose: an answer's body closed after a read to EOF
// parks its connection, and from then on answers http.ErrBodyReadAfterClose
// — never a byte of the next exchange, which another goroutine runs on that
// same connection meanwhile.
func TestTransportBodyAfterClose(t *testing.T) {
	var calls atomic.Int64
	hs, w := watchedServer(t, statsHandler(&calls), 0)
	c := server.NewClient(hs.URL, 1)
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTP.Transport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := c.Stats(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var buf [64]byte
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if n, err := resp.Body.Read(buf[:]); n != 0 || err != http.ErrBodyReadAfterClose {
			t.Fatalf("a closed body read %q, %v; want http.ErrBodyReadAfterClose", buf[:n], err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dials != 1 {
		t.Fatalf("51 sequential exchanges dialled %d connections, want 1", w.dials)
	}
}

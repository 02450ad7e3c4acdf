package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/framing"
)

// Kept connections: the Front serves the HTTP/1.1 connections of its
// http.Server itself after their first request (doc.go says who reads which
// head, and how shutdown drains them).

// handler is the Front as an http.Handler.
type handler Front

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := (*Front)(h)
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	if ok && hs != nil && hs.Handler == http.Handler(h) && r.ProtoMajor == 1 && r.ProtoMinor == 1 && !r.Close &&
		r.TransferEncoding == nil && r.ContentLength >= 0 && len(r.Header["Expect"]) == 0 && !f.closed.Load() {
		if nc, brw, err := hj.Hijack(); err == nil {
			f.keep(hs, nc, brw.Reader, r)
			return
		}
	}
	f.mux.ServeHTTP(w, r)
}

// keptConns is the Front's record of the connections it keeps.
type keptConns struct {
	mu      sync.Mutex
	conns   map[*keptConn]bool // true while a request read on it is unanswered
	busy    int                // requests read and not yet answered
	notices map[*http.Server]*closeNotice
}

// keptConn is one connection the Front keeps.
type keptConn struct {
	f                *Front
	nc               net.Conn
	notice           *closeNotice // of the server the connection came from
	cr               connReader
	br               *bufio.Reader
	bw               *bufio.Writer
	idle, head, body time.Duration // the server's timeouts
	maxHead          int64         // bytes a head may take, as net/http counts them
	tmpl, req        http.Request  // what every canonical request starts from; the one it is
	url              url.URL
	hdr              http.Header
	method, host     string   // the last ones, kept while they do not change
	ctype            []string // the last Content-Type, likewise
	lr               io.LimitedReader
	held             heldBody
	w                keptWriter
	x                statusRecorder
}

// keep serves nc, hijacked while net/http served its first request r, until
// the connection ends.
func (f *Front) keep(hs *http.Server, nc net.Conn, br *bufio.Reader, r *http.Request) {
	c := &keptConn{f: f, nc: nc, bw: bufio.NewWriter(nc), hdr: http.Header{}, ctype: []string{""},
		idle: cmp.Or(hs.IdleTimeout, hs.ReadTimeout), head: cmp.Or(hs.ReadHeaderTimeout, hs.ReadTimeout),
		body: bodyTimeout(r.Context()), maxHead: int64(cmp.Or(hs.MaxHeaderBytes, http.DefaultMaxHeaderBytes)) + 4096}
	ahead, _ := br.Peek(br.Buffered())
	ctx, cancel := context.WithCancel(context.WithoutCancel(r.Context())) // the connection's
	c.cr = connReader{nc: nc, ahead: bytes.Clone(ahead), remain: math.MaxInt64,
		start: make(chan struct{}), done: make(chan struct{}, 1), cancel: cancel}
	c.br = bufio.NewReader(&c.cr)
	c.w = keptWriter{c: c, header: http.Header{}}
	first := r.WithContext(ctx)
	c.tmpl = *first
	c.tmpl.URL, c.tmpl.Header, c.tmpl.Form, c.tmpl.PostForm = &c.url, c.hdr, nil, nil
	go c.cr.watch()
	defer func() { // on a handler's panic too, which net/http reports
		f.kept.mu.Lock()
		if f.kept.conns[c] {
			f.kept.busy--
		}
		delete(f.kept.conns, c)
		f.kept.mu.Unlock()
		nc.Close()
		close(c.cr.start)
		cancel()
	}()
	if f.track(hs, c) {
		c.lr = io.LimitedReader{R: c.br, N: r.ContentLength}
		for r, src := first, io.Reader(&c.lr); r != nil && c.serve(r, src); r, src = c.next() {
		}
	}
}

// serve answers r, whose head has been read and whose body src yields, and
// reports whether the connection carries another request.
func (c *keptConn) serve(r *http.Request, src io.Reader) bool {
	if !c.f.setBusy(c, true) {
		return false
	}
	w := &c.w
	clear(w.header)
	w.r, w.status = r, 0
	if r.ContentLength != 0 && strings.EqualFold(r.Header.Get("Expect"), "100-continue") {
		c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		c.bw.Flush()
	}
	c.nc.SetReadDeadline(time.Now().Add(c.body))
	c.held.hold(src, r.ContentLength)
	c.nc.SetReadDeadline(time.Time{})
	r.Body, w.close = &c.held, c.held.err != nil || c.held.more
	if len(c.cr.ahead) == 0 {
		c.cr.startWatch()
	}
	if m := c.f.endpoints[r.URL.Path]; m != nil {
		c.x = statusRecorder{ResponseWriter: w, kept: true}
		c.f.serveMounted(m, &c.x, r)
	} else {
		c.f.mux.ServeHTTP(w, r)
	}
	c.held.release()
	keep := w.finish()
	return c.f.setBusy(c, false) && keep
}

// next reads the next request's head: a canonical one in place, any other by
// http.ReadRequest. It returns nil when the connection ends — the peer closed
// it, it idled out, or its head was bad, which is answered as net/http would.
func (c *keptConn) next() (*http.Request, io.Reader) {
	c.deadline(c.idle)
	if _, err := c.br.Peek(1); err != nil {
		return nil, nil
	}
	c.deadline(c.head)
	c.cr.remain, c.cr.hit = c.maxHead, false
	defer func() { c.cr.remain = math.MaxInt64 }()
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		if n := headEnd(buf); n > 0 {
			if h, ok := parseRequestHead(buf[:n]); ok {
				r := c.fill(h)
				c.br.Discard(n)
				return r, &c.lr
			}
			break
		} else if n < 0 {
			break
		} else if _, err := c.br.Peek(len(buf) + 1); err != nil || len(buf) == c.br.Size() {
			break
		}
	}
	r, err := http.ReadRequest(c.br)
	_, netErr := err.(net.Error)
	switch {
	case err != nil && c.cr.hit:
		c.reject(http.StatusRequestHeaderFieldsTooLarge, "")
	case err != nil && !netErr && err != io.EOF:
		c.reject(http.StatusBadRequest, "")
	case err != nil:
	case r.ProtoMajor != 1:
		c.reject(http.StatusHTTPVersionNotSupported, ": unsupported protocol version")
	case r.ProtoMinor > 0 && r.Host == "":
		c.reject(http.StatusBadRequest, ": missing required Host header")
	default:
		return r.WithContext(c.tmpl.Context()), r.Body
	}
	return nil, nil
}

// fill makes the connection's request record the canonical request h.
func (c *keptConn) fill(h reqHead) *http.Request {
	r := &c.req
	*r = c.tmpl
	if string(h.method) != c.method {
		c.method = string(h.method)
	}
	if string(h.host) != c.host {
		c.host = string(h.host)
	}
	r.Method, r.Host = c.method, c.host
	path, query, _ := bytes.Cut(h.target, []byte("?"))
	c.url = url.URL{}
	if m := c.f.endpoints[string(path)]; m != nil {
		c.url.Path = m.path
	} else {
		c.url.Path = string(path)
	}
	r.RequestURI = c.url.Path
	if len(query) > 0 {
		c.url.RawQuery, r.RequestURI = string(query), string(h.target)
	}
	clear(c.hdr)
	if h.ctype != nil && string(h.ctype) != c.ctype[0] {
		c.ctype = []string{string(h.ctype)}
	}
	if h.ctype != nil {
		c.hdr["Content-Type"] = c.ctype
	}
	if h.traceID != nil {
		c.hdr[traceIDHeader] = []string{string(h.traceID)}
	}
	r.ContentLength, c.lr = h.length, io.LimitedReader{R: c.br, N: h.length}
	return r
}

// deadline bounds the connection's reads by d from now; d ≤ 0 lifts it.
func (c *keptConn) deadline(d time.Duration) {
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	c.nc.SetReadDeadline(t)
}

// reject answers a head net/http's server refuses, as it does, and lets the
// peer read the answer before the connection closes.
func (c *keptConn) reject(code int, why string) {
	status := fmt.Sprint(code, " ", http.StatusText(code), why)
	fmt.Fprintf(c.bw, "HTTP/1.1 %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n%s", status, status)
	if tcp, ok := c.nc.(interface{ CloseWrite() error }); ok && c.bw.Flush() == nil && tcp.CloseWrite() == nil {
		c.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, c.nc)
	}
}

// track records c, served by hs, and reports whether it may serve: neither
// hs nor the Front is closing.
func (f *Front) track(hs *http.Server, c *keptConn) bool {
	k := &f.kept
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.conns == nil {
		k.conns, k.notices = map[*keptConn]bool{}, map[*http.Server]*closeNotice{}
	}
	if c.notice = k.notices[hs]; c.notice == nil {
		c.notice = &closeNotice{f: f, hs: hs, closed: make(chan struct{})}
		k.notices[hs] = c.notice
		go hs.Serve(c.notice)
	}
	k.conns[c] = false
	return !c.closing()
}

// setBusy marks c busy with a request whose head has been read, or idle once
// it is answered; false when the connection is to close instead, as net/http
// closes an idle one.
func (f *Front) setBusy(c *keptConn, busy bool) bool {
	k := &f.kept
	k.mu.Lock()
	defer k.mu.Unlock()
	if busy && c.closing() {
		return false
	}
	if k.conns[c] = busy; busy {
		k.busy++
	} else {
		k.busy--
	}
	return !c.closing()
}

func (c *keptConn) closing() bool { return c.f.closed.Load() || c.notice.done.Load() }

// closeIdle closes, under the lock, the idle kept connections of notice n
// (nil: all).
func (k *keptConns) closeIdle(n *closeNotice) {
	for c, busy := range k.conns {
		if !busy && (n == nil || c.notice == n) {
			c.nc.Close()
		}
	}
}

// drain closes the idle kept connections and waits until no request read on
// one is unanswered. The Front is closed already, so none starts.
func (k *keptConns) drain(ctx context.Context) error {
	for wait := time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		k.mu.Lock()
		k.closeIdle(nil)
		busy := k.busy
		k.mu.Unlock()
		if busy == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d requests on kept connections: %w", busy, ctx.Err())
		case <-time.After(wait):
		}
	}
}

// closeNotice tells the Front that an http.Server is closing. The server
// serves it as a listener beside its own, so Close and Shutdown close it with
// them; the one connection it accepts is itself, which sends nothing and so
// stays new until Close, or httptest.Server's, closes it with the
// connections net/http tracks.
type closeNotice struct {
	f        *Front
	hs       *http.Server
	accepted atomic.Bool
	once     sync.Once
	closed   chan struct{}
	done     atomic.Bool
}

func (n *closeNotice) Accept() (net.Conn, error) {
	if n.accepted.CompareAndSwap(false, true) {
		return n, nil
	}
	<-n.closed
	return nil, net.ErrClosed
}

func (n *closeNotice) Read([]byte) (int, error) {
	<-n.closed
	return 0, io.EOF
}

func (n *closeNotice) Write([]byte) (int, error)        { return 0, net.ErrClosed }
func (n *closeNotice) Addr() net.Addr                   { return &net.TCPAddr{} }
func (n *closeNotice) LocalAddr() net.Addr              { return n.Addr() }
func (n *closeNotice) RemoteAddr() net.Addr             { return n.Addr() }
func (n *closeNotice) SetDeadline(time.Time) error      { return nil }
func (n *closeNotice) SetReadDeadline(time.Time) error  { return nil }
func (n *closeNotice) SetWriteDeadline(time.Time) error { return nil }

func (n *closeNotice) Close() error {
	n.once.Do(func() {
		k := &n.f.kept
		k.mu.Lock()
		n.done.Store(true)
		delete(k.notices, n.hs)
		k.closeIdle(n)
		k.mu.Unlock()
		close(n.closed)
	})
	return nil
}

// connReader is what a kept connection's bufio.Reader reads: the bytes
// net/http had read ahead of the hijack, then the socket — within a budget
// while a head is read, so an overlong one is found as net/http finds it.
// While a request is served, a one-byte read (watch) waits on the socket, so
// a peer that hangs up mid-request ends the connection's context; the byte it
// reads, the start of the next request, is the next Read's.
type connReader struct {
	nc          net.Conn
	ahead       []byte
	remain      int64 // of the budget
	hit         bool  // a Read found the budget spent
	start, done chan struct{}
	watching    bool
	one         [1]byte
	n           int
	err         error
	cancel      func() // of the connection's context
}

func (cr *connReader) Read(p []byte) (int, error) {
	switch {
	case len(p) == 0:
		return 0, nil
	case cr.watching:
		<-cr.done
		if cr.watching = false; cr.n == 0 {
			return 0, cr.err
		}
		p[0] = cr.one[0]
		return 1, nil
	case len(cr.ahead) > 0:
		n := copy(p, cr.ahead)
		cr.ahead = cr.ahead[n:]
		return n, nil
	case cr.remain <= 0:
		cr.hit = true
		return 0, io.EOF
	}
	n, err := cr.nc.Read(p[:min(int64(len(p)), cr.remain)])
	cr.remain -= int64(n)
	return n, err
}

func (cr *connReader) startWatch() {
	if !cr.watching {
		cr.watching = true
		cr.start <- struct{}{}
	}
}

// watch runs for the connection's life, one read per startWatch.
func (cr *connReader) watch() {
	for range cr.start {
		if cr.n, cr.err = cr.nc.Read(cr.one[:]); cr.n == 0 {
			cr.cancel() // the peer hung up, or the connection is ending
		}
		cr.done <- struct{}{}
	}
}

// heldBody is a request body read whole, into pooled scratch, before the
// request takes a permit: its bytes, then the error that ended the read.
type heldBody struct {
	buf  *[]byte
	b    []byte
	err  error
	more bool // bytes past heldLimit remain unread
}

// heldLimit is the most of a body that is held: a framed record of
// maxBodyBytes, the largest body any endpoint reads, and a byte to show more.
var heldLimit = int64(framing.RecordSize(maxBodyBytes)) + 1

// hold reads the body r of stated length n (-1 none) within the deadline its
// connection has.
func (h *heldBody) hold(r io.Reader, n int64) {
	if *h = (heldBody{}); n != 0 {
		h.buf = binproto.GetBuf()
		*h.buf, h.err = readBody(r, n, heldLimit, (*h.buf)[:0])
		h.b, h.more = *h.buf, n > heldLimit || n < 0 && int64(len(*h.buf)) == heldLimit
	}
}

func (h *heldBody) Read(p []byte) (int, error) {
	if len(h.b) == 0 {
		return 0, cmp.Or(h.err, io.EOF)
	}
	n := copy(p, h.b)
	h.b = h.b[n:]
	return n, nil
}

func (h *heldBody) Close() error { return nil }

func (h *heldBody) release() {
	if h.buf != nil {
		binproto.PutBuf(h.buf)
		*h = heldBody{}
	}
}

// bodyTimeout is how long a request body may take to arrive after its head:
// the ReadHeaderTimeout of the server in ctx, or readHeaderTimeout.
func bodyTimeout(ctx context.Context) time.Duration {
	if hs, _ := ctx.Value(http.ServerContextKey).(*http.Server); hs != nil && hs.ReadHeaderTimeout > 0 {
		return hs.ReadHeaderTimeout
	}
	return readHeaderTimeout
}

// reqHead is what the Front keeps of a canonical request head, in place.
type reqHead struct {
	method, target, host, ctype, traceID, clen []byte // nil: no such field
	length                                     int64
}

// headEnd is the length of the canonical head at the start of b, through
// its empty line: 0 while that has not arrived, -1 when a bare line feed
// shows the head is not canonical.
func headEnd(b []byte) int {
	if i := bytes.Index(b, []byte("\r\n\r\n")); i >= 0 {
		return i + 4
	} else if bytes.Contains(b, []byte("\n\n")) || bytes.Contains(b, []byte("\n\r\n")) {
		return -1
	}
	return 0
}

// parseRequestHead parses head, a request line and header block through its
// empty line, in place, and accepts it when canonical: an upper-case method,
// an origin-form target with no escape in its path, HTTP/1.1, CRLF line
// ends, printable ASCII values, one Host, and at most one each of
// Content-Length, Content-Type and the trace header — nothing else, so never
// a coding or a folded line. What it declines is http.ReadRequest's to read.
func parseRequestHead(head []byte) (h reqHead, ok bool) {
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	method, line, _ := bytes.Cut(line, []byte(" "))
	target, proto, _ := bytes.Cut(line, []byte(" "))
	path, _, _ := bytes.Cut(target, []byte("?"))
	if len(method) == 0 || len(bytes.Trim(method, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")) > 0 || string(proto) != "HTTP/1.1" ||
		len(path) == 0 || path[0] != '/' || bytes.ContainsAny(path, "%#") || !printable(target, false) {
		return h, false
	}
	for h.method, h.target = method, target; ; {
		if line, rest, ok = bytes.Cut(rest, []byte("\r\n")); !ok {
			return h, false
		} else if len(line) == 0 {
			break
		}
		key, value, colon := bytes.Cut(line, []byte(":"))
		if value = bytes.Trim(value, " \t"); !colon || len(value) == 0 || !printable(value, true) {
			return h, false
		}
		var field *[]byte
		switch {
		case is(key, "Host"):
			field = &h.host
		case is(key, "Content-Length"):
			field = &h.clen
		case is(key, "Content-Type"):
			field = &h.ctype
		case is(key, traceIDHeader):
			field = &h.traceID
		}
		if field == nil || *field != nil {
			return h, false
		}
		*field = value
	}
	if h.clen != nil {
		n, err := strconv.ParseUint(string(h.clen), 10, 63)
		if err != nil {
			return h, false
		}
		h.length = int64(n)
	}
	return h, h.host != nil && len(rest) == 0
}

// printable reports whether b is printable ASCII, with spaces and tabs when
// blanks.
func printable(b []byte, blanks bool) bool {
	for _, c := range b {
		if (c <= ' ' || c >= 0x7f) && !(blanks && (c == ' ' || c == '\t')) {
			return false
		}
	}
	return true
}

// keptWriter is the http.ResponseWriter of a kept connection's requests: it
// holds the answer whole and sends it, with its length, once the handler
// returns.
type keptWriter struct {
	c      *keptConn
	r      *http.Request
	header http.Header
	status int
	held   *[]byte // the answer's body
	close  bool    // the connection ends with the answer
	date   [len(http.TimeFormat)]byte
}

func (w *keptWriter) Header() http.Header { return w.header }

func (w *keptWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *keptWriter) Write(p []byte) (int, error) {
	if w.WriteHeader(http.StatusOK); w.held == nil {
		w.held = binproto.GetBuf()
		*w.held = (*w.held)[:0]
	}
	*w.held = append(*w.held, p...)
	return len(p), nil
}

// finish sends the answer as net/http's server frames it — the handler's
// fields, the Date, the body's length unless the handler stated it, and what
// keeps the connection or ends it — and reports whether the connection
// outlives it.
func (w *keptWriter) finish() bool {
	h, r, bw := w.header, w.r, w.c.bw
	w.WriteHeader(http.StatusOK)
	w.close = w.close || r.Close || w.c.closing() || h.Get("Connection") == "close"
	proto, text, body := "HTTP/1.1 ", http.StatusText(w.status), []byte(nil)
	if r.ProtoMinor == 0 {
		proto = "HTTP/1.0 "
	}
	if text == "" {
		text = "status code " + strconv.Itoa(w.status)
	}
	if w.held != nil {
		body = *w.held
	}
	if cl := h["Content-Length"]; len(cl) > 0 && r.Method != http.MethodHead {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err != nil || n != int64(len(body)) {
			delete(h, "Content-Length") // any other length would misframe the next answer
		}
	}
	bw.WriteString(proto)
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.status), 10))
	bw.WriteString(" ")
	bw.WriteString(text)
	bw.WriteString("\r\n")
	h.Write(bw)
	bw.WriteString("Date: ")
	bw.Write(time.Now().UTC().AppendFormat(w.date[:0], http.TimeFormat))
	if _, stated := h["Content-Length"]; !stated && (len(body) > 0 || r.Method != http.MethodHead) {
		bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), "\r\nContent-Length: "...), int64(len(body)), 10))
	}
	switch {
	case w.close && r.ProtoMinor > 0:
		bw.WriteString("\r\nConnection: close")
	case !w.close && r.ProtoMinor == 0:
		bw.WriteString("\r\nConnection: keep-alive")
	}
	if bw.WriteString("\r\n\r\n"); r.Method != http.MethodHead {
		bw.Write(body)
	}
	if w.held != nil {
		binproto.PutBuf(w.held)
		w.held = nil
	}
	return bw.Flush() == nil && !w.close
}

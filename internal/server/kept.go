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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/framing"
)

// Kept connections: the Front serves the data plane of its http.Server's
// HTTP/1.1 connections itself, and hands every other request back to
// net/http on its connection (doc.go says who reads which head, and how
// shutdown drains them).

// handler is the Front as an http.Handler.
type handler Front

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := (*Front)(h)
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	if m := f.canonical(r); ok && m != nil && hs != nil && hs.Handler == http.Handler(h) && !f.closed.Load() {
		if nc, brw, err := hj.Hijack(); err == nil {
			f.keep(hs, nc, brw.Reader, r, m)
			return
		}
	}
	f.mux.ServeHTTP(w, r)
}

// canonical is the data-plane endpoint of r when net/http read a head the
// kept loop would take (parseRequestHead): a POST with an origin-form target,
// on HTTP/1.1, with at most one each of Content-Length, Content-Type and the
// trace header beside its Host.
func (f *Front) canonical(r *http.Request) *mounted {
	m := f.endpoints[r.URL.Path]
	if m == nil || m.op == nil || r.Method != http.MethodPost || r.Proto != "HTTP/1.1" || r.Close ||
		r.TransferEncoding != nil || r.RequestURI == "" || r.RequestURI[0] != '/' {
		return nil
	}
	for k, v := range r.Header {
		if len(v) != 1 || k != "Content-Length" && k != "Content-Type" && k != traceIDHeader {
			return nil
		}
	}
	return m
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
	ctx              context.Context // the connection's; ends when its peer hangs up
	notice           *closeNotice    // of the server the connection came from
	cr               connReader
	br               *bufio.Reader
	bw               *bufio.Writer
	idle, head, body time.Duration // the server's timeouts
	lr               io.LimitedReader
	x                statusRecorder
	close            bool        // the connection ends with the answer
	back             *handedConn // what goes back to net/http, if it does
}

// keep serves nc, hijacked while net/http served its first request r, to the
// data-plane endpoint m, until the connection ends or goes back to net/http.
func (f *Front) keep(hs *http.Server, nc net.Conn, br *bufio.Reader, r *http.Request, m *mounted) {
	ahead, _ := br.Peek(br.Buffered())
	ahead = bytes.Clone(ahead)
	if hc, ok := nc.(*handedConn); ok { // kept before: the socket, not the wrapper
		nc, ahead = hc.Conn, append(ahead, hc.ahead...)
	}
	ctx, cancel := context.WithCancel(context.WithoutCancel(r.Context()))
	c := &keptConn{f: f, nc: nc, ctx: ctx, bw: bufio.NewWriter(nc),
		idle: cmp.Or(hs.IdleTimeout, hs.ReadTimeout), head: cmp.Or(hs.ReadHeaderTimeout, hs.ReadTimeout),
		body: bodyTimeout(r.Context())}
	c.cr = connReader{nc: nc, ahead: ahead, done: make(chan struct{}, 1), cancel: cancel}
	c.cr.timer = time.AfterFunc(math.MaxInt64, c.cr.readOne) // due only once serve arms it
	c.br = bufio.NewReader(&c.cr)
	defer func() { // on a handler's panic too, which net/http reports
		f.kept.mu.Lock()
		if f.kept.conns[c] {
			f.kept.busy--
		}
		delete(f.kept.conns, c)
		f.kept.mu.Unlock()
		c.cr.timer.Stop()
		cancel()
		if c.back != nil { // no goroutine of the Front reads it any more
			select {
			case c.notice.back <- c.back:
				return
			case <-c.notice.closed:
			}
		}
		nc.Close()
	}()
	f.track(hs, c)
	h := reqHead{target: []byte(r.RequestURI), traceID: []byte(r.Header.Get(traceIDHeader)), length: r.ContentLength}
	for m != nil && c.serve(m, h) {
		m, h = c.next()
	}
}

// serve answers the request of head h to endpoint m, and reports whether the
// connection carries another. One read once shutdown has begun is answered
// 503 and ends the connection.
func (c *keptConn) serve(m *mounted, h reqHead) bool {
	busy := c.f.setBusy(c, true)
	_, query, _ := bytes.Cut(h.target, []byte("?"))
	x := &c.x
	*x = statusRecorder{kept: c, query: string(query), traceID: string(h.traceID)}
	c.lr = io.LimitedReader{R: c.br, N: h.length}
	c.nc.SetReadDeadline(time.Now().Add(c.body))
	x.held.hold(&c.lr, h.length)
	c.nc.SetReadDeadline(time.Time{})
	c.close = x.held.err != nil || x.held.more
	if !busy {
		x.fail(errShuttingDown)
	} else {
		armed := !c.cr.watching && len(c.cr.ahead) == 0
		if armed {
			c.cr.timer.Reset(watchDelay)
		}
		c.f.run(m, x, c.ctx, nil)
		if armed && !c.cr.timer.Stop() { // the watch began: the next Read takes its byte
			c.cr.watching = true
		}
	}
	x.held.release()
	x.send()
	return busy && c.f.setBusy(c, false) && !c.close
}

// next reads the next request's head and returns its endpoint: nil once the
// connection ends — its peer closed it, or it idled or stalled out — or goes
// back to net/http, as it does on any head but a canonical data-plane POST.
func (c *keptConn) next() (*mounted, reqHead) {
	c.deadline(c.idle)
	if _, err := c.br.Peek(1); err != nil {
		return nil, reqHead{}
	}
	c.deadline(c.head)
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		n := headEnd(buf)
		if n > 0 {
			h, ok := parseRequestHead(buf[:n])
			path, _, _ := bytes.Cut(h.target, []byte("?"))
			if m := c.f.endpoints[string(path)]; ok && m != nil && m.op != nil {
				c.br.Discard(n)
				return m, h
			}
		}
		if n != 0 || len(buf) == c.br.Size() { // another head, or one past the buffer
			c.handBack()
			return nil, reqHead{}
		}
		if _, err := c.br.Peek(len(buf) + 1); err != nil {
			return nil, reqHead{}
		}
	}
}

// handBack readies the connection, with the bytes read ahead of its next
// request, for net/http, whose server accepts it from the close notice once
// keep returns.
func (c *keptConn) handBack() {
	cr := &c.cr
	if cr.watching { // end the pending read, keeping its byte
		c.nc.SetReadDeadline(time.Unix(1, 0))
		<-cr.done
		if cr.watching = false; cr.n == 1 {
			cr.ahead = append(cr.ahead, cr.one[0])
		}
	}
	c.nc.SetReadDeadline(time.Time{})
	buf, _ := c.br.Peek(c.br.Buffered())
	c.back = &handedConn{Conn: c.nc, ahead: append(bytes.Clone(buf), cr.ahead...)}
}

// frame writes an answer as net/http's server frames one — its length, type
// and Date, and Connection: close when the connection ends with it.
func (c *keptConn) frame(status int, ctype string, body []byte) {
	c.close = c.close || c.closing()
	bw := c.bw
	bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), "HTTP/1.1 "...), int64(status), 10))
	if text := http.StatusText(status); text != "" {
		bw.WriteString(" ")
		bw.WriteString(text)
	} else {
		bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), " status code "...), int64(status), 10))
	}
	bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), "\r\nContent-Length: "...), int64(len(body)), 10))
	bw.WriteString("\r\nContent-Type: ")
	bw.WriteString(ctype)
	bw.Write(time.Now().UTC().AppendFormat(append(bw.AvailableBuffer(), "\r\nDate: "...), http.TimeFormat))
	if c.close {
		bw.WriteString("\r\nConnection: close")
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(body)
	c.close = bw.Flush() != nil || c.close
}

// deadline bounds the connection's reads by d from now; d ≤ 0 lifts it.
func (c *keptConn) deadline(d time.Duration) {
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	c.nc.SetReadDeadline(t)
}

// track records c, served by hs.
func (f *Front) track(hs *http.Server, c *keptConn) {
	k := &f.kept
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.conns == nil {
		k.conns, k.notices = map[*keptConn]bool{}, map[*http.Server]*closeNotice{}
	}
	if c.notice = k.notices[hs]; c.notice == nil {
		c.notice = &closeNotice{f: f, hs: hs, back: make(chan net.Conn), closed: make(chan struct{})}
		k.notices[hs] = c.notice
		go hs.Serve(c.notice)
	}
	k.conns[c] = false
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

// closeNotice tells the Front that an http.Server is closing, and hands that
// server the connections the Front gives back. The server serves it as a
// listener beside its own, so Close and Shutdown close it with them; the
// first connection it accepts is itself, which sends nothing and so stays new
// until Close, or httptest.Server's, closes it with the connections net/http
// tracks.
type closeNotice struct {
	f        *Front
	hs       *http.Server
	accepted atomic.Bool
	back     chan net.Conn
	once     sync.Once
	closed   chan struct{}
	done     atomic.Bool
}

func (n *closeNotice) Accept() (net.Conn, error) {
	if n.accepted.CompareAndSwap(false, true) {
		return n, nil
	}
	select {
	case c := <-n.back:
		return c, nil
	case <-n.closed:
		return nil, net.ErrClosed
	}
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

// handedConn is a kept connection given back to net/http: the bytes the Front
// read ahead of its next request, then the socket. It keeps the socket's
// CloseWrite, with which net/http lets the peer read an answer that ends the
// connection (a 431) before it closes.
type handedConn struct {
	net.Conn
	ahead []byte
}

func (hc *handedConn) Read(p []byte) (int, error) {
	if len(hc.ahead) == 0 {
		return hc.Conn.Read(p)
	}
	n := copy(p, hc.ahead)
	hc.ahead = hc.ahead[n:]
	return n, nil
}

func (hc *handedConn) CloseWrite() error {
	if cw, ok := hc.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

const watchDelay = 2 * time.Millisecond // how long a request runs unwatched

// connReader is what a kept connection's bufio.Reader reads: the bytes
// net/http had read ahead of the hijack, then the socket. A request still
// served watchDelay after it began starts the watch, a one-byte read
// (readOne) on the timer's goroutine, so a peer that hangs up mid-request
// ends the connection's context; the byte it reads, the start of the next
// request, is the next Read's. A faster request starts none.
type connReader struct {
	nc       net.Conn
	ahead    []byte
	timer    *time.Timer // runs readOne
	done     chan struct{}
	watching bool // a readOne began and the loop has not taken its byte
	one      [1]byte
	n        int
	err      error
	cancel   func() // of the connection's context
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
	}
	return cr.nc.Read(p)
}

// readOne is the watch: one read, whose end it signals on done.
func (cr *connReader) readOne() {
	if cr.n, cr.err = cr.nc.Read(cr.one[:]); cr.n == 0 {
		cr.cancel() // the peer hung up, or the connection is ending
	}
	cr.done <- struct{}{}
}

// heldBody is a request body read whole, into pooled scratch, before the
// request takes a permit: its bytes, then the error that ended the read.
type heldBody struct {
	buf  *[]byte
	b    []byte
	n    int64 // the stated length, -1 none
	err  error
	more bool // bytes past heldLimit remain unread
}

// heldLimit is the most of a body that is held: a framed record of
// maxBodyBytes, the largest body any endpoint reads, and a byte to show more.
var heldLimit = int64(framing.RecordSize(maxBodyBytes)) + 1

// hold reads the body r of stated length n (-1 none) within the deadline its
// connection has.
func (h *heldBody) hold(r io.Reader, n int64) {
	if *h = (heldBody{n: n}); n != 0 {
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
	target, host, ctype, traceID, clen []byte // nil: no such field
	length                             int64
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
// empty line, in place, and accepts it when canonical: a POST to an
// origin-form target with no escape in its path, HTTP/1.1, CRLF line ends,
// printable ASCII values, one Host, and at most one each of Content-Length,
// Content-Type and the trace header — nothing else, so never a coding or a
// folded line. What it declines goes back to net/http.
func parseRequestHead(head []byte) (h reqHead, ok bool) {
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	method, line, _ := bytes.Cut(line, []byte(" "))
	target, proto, _ := bytes.Cut(line, []byte(" "))
	path, _, _ := bytes.Cut(target, []byte("?"))
	if string(method) != http.MethodPost || string(proto) != "HTTP/1.1" ||
		len(path) == 0 || path[0] != '/' || bytes.ContainsAny(path, "%#") || !printable(target, false) {
		return h, false
	}
	for h.target = target; ; {
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

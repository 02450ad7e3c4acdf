package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// transport carries the typed client's exchanges: HTTP/1.1, which it writes
// (writeHead) and parses (readHead) itself, over a per-host pool of
// keep-alive connections, each exchange run on its caller's goroutine. An
// idle connection the server closed is found before reuse (liveness, per
// platform). No request is sent twice: resending is Client.Retry's call.
type transport struct {
	maxIdle int // idle connections kept per host
	dialer  net.Dialer
	mu      sync.Mutex
	idle    map[string][]*conn // per host, the most recently parked last
}

// sharedTransport carries the exchanges of a Client without one of its own.
var sharedTransport = newTransport(http.DefaultMaxIdleConnsPerHost)

func newTransport(maxIdle int) *transport {
	return &transport{maxIdle: maxIdle, idle: map[string][]*conn{},
		dialer: net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}}
}

// conn is one keep-alive connection, owned by one exchange at a time.
type conn struct {
	t        *transport
	host     string
	nc       net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	ctx      context.Context // of the exchange in flight
	deadline bool            // ctx's deadline is the connection's
	stop     func() bool     // unregisters cancel; nil when ctx cannot end
	cancel   func()          // ends the exchange's blocked I/O; bound at the dial
	body     body            // of the exchange in flight, read through lr when of stated length
	lr       io.LimitedReader
	liveness
}

// request is what writeHead writes: a nil ctype, zero traceID or nil header
// sends no such field, a nil body no Content-Length.
type request struct {
	method, host, prefix, path string // the target is prefix+path
	ctype                      []string
	traceID                    uint64
	header                     http.Header
	body                       []byte
}

// splitBase splits a Client's Base into its host and the prefix of every path.
func splitBase(base string) (host, prefix string, err error) {
	rest, ok := strings.CutPrefix(base, "http://")
	if host, _, _ = strings.Cut(rest, "/"); !ok || host == "" || strings.ContainsAny(rest, " \t\r\n") {
		return "", "", fmt.Errorf("base URL %q is not http://host[:port][/prefix]", base)
	}
	return host, rest[len(host):], nil
}

// exchange sends rq over a pooled connection and reads the answer's head. The
// body it returns is the connection's own: it holds the connection until
// closed, and is the connection's next exchange's once it is.
func (t *transport) exchange(ctx context.Context, rq *request) (*body, error) {
	c, err := t.get(ctx, rq.host)
	if err != nil {
		return nil, err
	}
	c.ctx = ctx
	var d time.Time
	if d, c.deadline = ctx.Deadline(); c.deadline {
		c.nc.SetDeadline(d) // fails on a closed connection alone, whose I/O fails next
	}
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.cancel)
	}
	writeHead(c.bw, rq)
	werr := c.bw.Flush()
	// A server may answer, and close, before it has read the whole request.
	h, err := readHead(c.br)
	if err != nil {
		if werr != nil {
			err = werr
		}
		err = c.cause(err)
		c.release(false)
		return nil, err
	}
	return c.open(h, werr == nil), nil
}

// open frames the body of an answer with head h; sent reports whether the
// request went out whole.
func (c *conn) open(h head, sent bool) *body {
	c.body = body{c: c, r: c.br, head: h, keep: sent && !h.close}
	if h.chunked {
		c.body.r = httputil.NewChunkedReader(c.br)
	} else if h.length >= 0 {
		c.lr = io.LimitedReader{R: c.br, N: h.length}
		c.body.r = &c.lr
	}
	return &c.body
}

// RoundTrip is exchange for a caller holding an *http.Request (http.Client.Do,
// a test's transport wrapping this one): it sends req's method, target, Host,
// header fields and body, and answers with an empty Header.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rq := request{method: cmp.Or(req.Method, http.MethodGet), host: cmp.Or(req.Host, req.URL.Host),
		path: req.URL.RequestURI(), header: req.Header}
	var err error
	if req.Body != nil {
		rq.body, err = io.ReadAll(req.Body)
		req.Body.Close()
	}
	var b *body
	if req.URL.Scheme != "http" {
		err = fmt.Errorf("unsupported protocol scheme %q", req.URL.Scheme)
	} else if err == nil {
		b, err = t.exchange(req.Context(), &rq)
	}
	if err != nil {
		return nil, err
	}
	own := *b // the caller's: once closed, the connection's body is the next exchange's
	return &http.Response{Status: fmt.Sprint(own.status, " ", http.StatusText(own.status)),
		StatusCode: own.status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
		Body: &own, ContentLength: own.length, Close: !own.keep, Request: req}, nil
}

// get takes the host's most recently parked live connection, or dials one.
func (t *transport) get(ctx context.Context, host string) (*conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if strings.LastIndexByte(host, ':') <= strings.LastIndexByte(host, ']') {
		host += ":80"
	}
	t.mu.Lock()
	for conns := t.idle[host]; len(conns) > 0; conns = t.idle[host] {
		c := conns[len(conns)-1]
		conns[len(conns)-1] = nil
		t.idle[host] = conns[:len(conns)-1]
		t.mu.Unlock()
		if c.alive() {
			return c, nil
		}
		c.nc.Close()
		t.mu.Lock()
	}
	t.mu.Unlock()
	nc, err := t.dialer.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	c := &conn{t: t, host: host, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	c.cancel = func() { nc.SetDeadline(time.Unix(1, 0)) }
	c.bind(nc)
	return c, nil
}

// cause is the error an exchange reports for err: the context's own error
// when the context ended the exchange.
func (c *conn) cause(err error) error {
	if cerr := c.ctx.Err(); cerr != nil {
		return cerr
	}
	if c.deadline && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// release ends the exchange. The connection is parked when reuse holds, the
// cancel hook never fired, no byte beyond the answer arrived and the host has
// fewer than maxIdle idle connections; otherwise it is closed.
func (c *conn) release(reuse bool) {
	if c.stop != nil && !c.stop() {
		reuse = false // the cancel hook fired
	}
	reuse = reuse && c.br.Buffered() == 0 && (!c.deadline || c.nc.SetDeadline(time.Time{}) == nil)
	c.ctx, c.stop = nil, nil
	t := c.t
	t.mu.Lock()
	if reuse = reuse && len(t.idle[c.host]) < t.maxIdle; reuse {
		c.parked()
		t.idle[c.host] = append(t.idle[c.host], c)
	}
	t.mu.Unlock()
	if !reuse {
		c.nc.Close()
	}
}

// body is an answer's body. Closed after a read to EOF of an answer the
// connection outlives, it parks its connection; closed earlier, it closes it
// rather than read the rest of the answer.
type body struct {
	c *conn // nil once closed
	r io.Reader
	head
	keep, eof bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, http.ErrBodyReadAfterClose
	} else if b.eof {
		return 0, io.EOF
	}
	n, err := b.r.Read(p)
	if err == io.EOF && b.length > 0 && b.c.lr.N > 0 {
		err = io.ErrUnexpectedEOF // the connection ended inside the stated length
	} else if err == io.EOF && b.chunked {
		// The last chunk ends in an empty trailer: the servers send no fields.
		if crlf, _ := b.c.br.Peek(2); string(crlf) != "\r\n" {
			err = errors.New("chunked answer ends without an empty trailer")
		} else {
			b.c.br.Discard(2)
		}
	}
	if b.eof = err == io.EOF; err != nil && !b.eof {
		err = b.c.cause(err)
	}
	return n, err
}

func (b *body) Close() error {
	if c := b.c; c != nil {
		b.c = nil // before release: a parked connection is the next exchange's
		c.release(b.keep && b.eof)
	}
	return nil
}

// writeHead writes rq into bw: request line, Host, Content-Type,
// Content-Length, trace header, rq's header fields, body. An error is bw's,
// reported by its next Flush.
func writeHead(bw *bufio.Writer, rq *request) {
	for _, s := range [...]string{rq.method, " ", rq.prefix, rq.path, " HTTP/1.1\r\nHost: ", rq.host} {
		bw.WriteString(s)
	}
	if rq.ctype != nil {
		bw.WriteString("\r\nContent-Type: ")
		bw.WriteString(rq.ctype[0])
	}
	if rq.body != nil {
		bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), "\r\nContent-Length: "...), int64(len(rq.body)), 10))
	}
	if rq.traceID != 0 {
		bw.Write(strconv.AppendUint(append(bw.AvailableBuffer(), "\r\n"+traceIDHeader+": "...), rq.traceID, 10))
	}
	bw.WriteString("\r\n")
	if rq.header != nil {
		rq.header.WriteSubset(bw, map[string]bool{"Host": true, "Content-Length": true, "Transfer-Encoding": true})
	}
	bw.WriteString("\r\n")
	bw.Write(rq.body)
}

// head is what an exchange keeps of an answer's head: close means the
// connection ends with the answer, length -1 that the body states none.
type head struct {
	status         int
	length         int64
	chunked, close bool
}

// readHead parses an answer's status line and header block in place. Of the
// fields it keeps what frames the body — Content-Length, Transfer-Encoding:
// chunked, Connection: close (keep-alive on HTTP/1.0) — and it refuses what
// could misframe it: differing lengths, a length beside a coding, a coding
// but chunked (any on HTTP/1.0), a line longer than br's buffer, and a 1xx,
// 204 or 304 status, which no request of this client asks for.
func readHead(br *bufio.Reader) (head, error) {
	h, digits, keepAlive := head{length: -1}, 0, false
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	status, err := strconv.ParseUint(string(line[min(9, len(line)):min(12, len(line))]), 10, 16)
	if h.status = int(status); err != nil || len(line) < 12 || len(line) > 12 && line[12] != ' ' ||
		string(line[:9]) != "HTTP/1.1 " && string(line[:9]) != "HTTP/1.0 " {
		return h, fmt.Errorf("malformed status line %q", line)
	} else if h.status < 200 || h.status == http.StatusNoContent || h.status == http.StatusNotModified {
		return h, fmt.Errorf("unexpected status %d", h.status)
	}
	http10 := line[7] == '0'
	for line, err = readLine(br); err == nil && len(line) > 0; line, err = readLine(br) {
		key, value, ok := bytes.Cut(line, []byte(":"))
		if value = bytes.Trim(value, " \t"); !ok {
			return h, fmt.Errorf("malformed header line %q", line)
		}
		switch {
		case is(key, "Content-Length"):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || digits > 0 && (int64(n) != h.length || len(value) != digits) {
				return h, fmt.Errorf("bad or differing Content-Length %q", value)
			}
			h.length, digits = int64(n), len(value)
		case is(key, "Transfer-Encoding"):
			if h.chunked = !h.chunked && !http10 && is(value, "chunked"); !h.chunked {
				return h, fmt.Errorf("unsupported transfer coding %q", value)
			}
		case is(key, "Connection"):
			for more := true; more; {
				var tok []byte
				tok, value, more = bytes.Cut(value, []byte(","))
				tok = bytes.Trim(tok, " \t")
				h.close, keepAlive = h.close || is(tok, "close"), keepAlive || is(tok, "keep-alive")
			}
		}
	}
	if err != nil {
		return h, err
	} else if h.chunked && digits > 0 {
		return h, errors.New("both Content-Length and Transfer-Encoding")
	}
	// Without a length or chunks, the body runs to the connection's end.
	h.close = h.close || http10 && !keepAlive || !h.chunked && h.length < 0
	return h, nil
}

// readLine reads one line of an answer's head, its line ending cut.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		err = errors.New("answer head line longer than the read buffer")
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), err
}

// is reports whether b is the ASCII name s, ignoring case: a non-ASCII rune
// in b would make it longer than s.
func is(b []byte, s string) bool { return len(b) == len(s) && strings.EqualFold(string(b), s) }

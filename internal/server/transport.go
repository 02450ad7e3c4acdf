package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

// transport is the typed client's http.RoundTripper: HTTP/1.1 over a per-host
// pool of keep-alive connections, each exchange written and read on its
// caller's goroutine, with no read or write loop per connection. An idle
// connection the server closed is found before reuse (liveness, per
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
	liveness
}

// RoundTrip writes req and reads the answer's head on the caller's
// goroutine. The answer's body owns the connection until it is closed.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	c, err := t.get(ctx, req.URL)
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
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
	werr := req.Write(c.bw)
	if werr == nil {
		werr = c.bw.Flush()
	}
	// A server may answer, and close, before it has read the whole request.
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		if werr != nil {
			err = werr
		}
		err = c.cause(err)
		c.release(false)
		return nil, err
	}
	resp.Body = &body{c: c, rc: resp.Body, keep: werr == nil && !resp.Close}
	return resp, nil
}

// get takes the host's most recently parked live connection, or dials one.
func (t *transport) get(ctx context.Context, u *url.URL) (*conn, error) {
	if u.Scheme != "http" {
		return nil, fmt.Errorf("unsupported protocol scheme %q", u.Scheme)
	} else if err := ctx.Err(); err != nil {
		return nil, err
	}
	host := u.Host
	if u.Port() == "" {
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

// body is an answer's body. Closed after a read to EOF of an answer without
// Connection: close, it parks its connection; closed earlier, it closes it
// rather than read the rest of the answer.
type body struct {
	c    *conn // nil once closed
	rc   io.Reader
	keep bool
	eof  bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		err = b.c.cause(err)
	}
	return n, err
}

func (b *body) Close() error {
	if b.c != nil {
		b.c.release(b.keep && b.eof)
		b.c = nil
	}
	return nil
}

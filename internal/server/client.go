package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// Client is a typed HTTP client for the server API. It is what the router,
// the experiments, the benchmark and the tests speak; curl speaks the same
// JSON (see the README's serving quickstart).
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	// HTTP carries the exchanges: its Transport alone is used (nil selects
	// one shared by every such client, keeping two idle connections per
	// host). The package's own, NewClient's, writes and parses HTTP/1.1
	// itself; any other is handed an *http.Request. No redirects, no
	// cookies, no Timeout: the context of the view (WithContext, WithTrace)
	// bounds each call.
	HTTP *http.Client
	// Retry enables transparent retry of transient failures (nil disables).
	Retry *Retry
	// Binary reroutes the six data-plane operations (Window, Point, KNN,
	// Insert, Update, Delete) and the traced query calls over the /bin/*
	// endpoints: framed binproto messages instead of JSON, same answers
	// (traced queries use the traced message kinds, which carry the span
	// tree in the response). Control-plane calls stay JSON.
	Binary bool
	// Counters, when set, tallies every HTTP exchange and retry this client
	// performs — the router attaches one per shard client so retry activity
	// (hidden by design from callers) still shows up in /metrics.
	Counters *RetryCounters
	// ctx and trace belong to a per-call view (WithContext, WithTrace): ctx
	// bounds every exchange and retry sleep, trace is the tracing of the
	// view's query calls.
	ctx   context.Context
	trace tracing
}

// RetryCounters is a thread-safe tally of a client's transparent retries,
// split by cause. All methods accept a nil receiver.
type RetryCounters struct {
	// attempts counts HTTP exchanges performed, first tries included.
	attempts atomic.Int64
	// overload counts retries caused by a 429 admission rejection; conn
	// counts retries caused by connection-level failures (reset, refused,
	// broken pipe, unexpected EOF).
	overload, conn atomic.Int64
}

func (rc *RetryCounters) attempt() {
	if rc != nil {
		rc.attempts.Add(1)
	}
}

func (rc *RetryCounters) retried(err error) {
	if rc == nil {
		return
	}
	if IsOverload(err) {
		rc.overload.Add(1)
	} else {
		rc.conn.Add(1)
	}
}

// RetryStats is a point-in-time copy of RetryCounters for wire surfaces.
type RetryStats struct {
	Attempts        int64 `json:"attempts"`
	RetriedOverload int64 `json:"retried_overload"`
	RetriedConn     int64 `json:"retried_conn"`
}

// Stats snapshots the counters (zero value on a nil receiver).
func (rc *RetryCounters) Stats() RetryStats {
	if rc == nil {
		return RetryStats{}
	}
	return RetryStats{
		Attempts:        rc.attempts.Load(),
		RetriedOverload: rc.overload.Load(),
		RetriedConn:     rc.conn.Load(),
	}
}

// Retry configures transient-failure handling: 429 admission rejections and
// connection-level failures are retried with exponential backoff and
// deterministic seeded jitter, up to Attempts tries total. Requests that
// reached the server and were answered with any other status are never
// retried — a 4xx/5xx answer is a verdict, not a glitch. Neither is a request
// that changes the store (a mutation, /recluster, /save, /load) once it may
// have been applied: it is re-sent only after a 429 or a refused connection,
// never after a reset, a broken pipe or an unexpected EOF, where the answer
// was lost but the effect may not have been.
type Retry struct {
	// Attempts bounds the total tries, first one included (default 4).
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per retry
	// (default 10 ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 500 ms).
	MaxDelay time.Duration
	// Seed drives the jitter, so a retry schedule is reproducible. The
	// effective delay is uniform in [delay/2, delay).
	Seed int64
}

func (r Retry) withDefaults() Retry {
	if r.Attempts <= 0 {
		r.Attempts = 4
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 10 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 500 * time.Millisecond
	}
	return r
}

// WithContext returns the per-call view of c: a shallow copy whose exchanges
// and retry sleeps abort when ctx does.
func (c *Client) WithContext(ctx context.Context) *Client {
	cp := *c
	cp.ctx = ctx
	return &cp
}

// WithTrace is WithContext for a traced caller: every query call of the view
// asks for its span tree and adopts the trace identity id, so the sub-traces
// of a fan-out join one distributed trace (0 lets the server mint one).
// Mutations and control-plane calls carry ctx only.
func (c *Client) WithTrace(ctx context.Context, id uint64) *Client {
	cp := c.WithContext(ctx)
	cp.trace = tracing{on: true, id: id}
	return cp
}

// mutating reports whether a request to path changes the store, so that
// re-sending a copy the server may already have applied is not harmless.
func mutating(path string) bool {
	path, _, _ = strings.Cut(path, "?")
	switch strings.TrimPrefix(path, "/bin") {
	case "/insert", "/update", "/delete", "/recluster", "/save", "/load":
		return true
	}
	return false
}

// retryable reports whether err is a transient failure worth retrying. An
// admission 429 and a refused connection are: the request was turned away
// before the server could act on it. A connection that died later (reset,
// broken pipe, unexpected EOF) left no answer but may have left an effect, so
// only requests that change nothing are sent again after one.
func retryable(err error, mutating bool) bool {
	if IsOverload(err) || errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	if mutating {
		return false
	}
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// NewClient builds a client whose transport keeps up to maxConns idle
// keep-alive connections to the server (2 when maxConns <= 0) — a
// closed-loop load generator with C clients needs C of them or it measures
// TCP handshakes — and runs each exchange on its caller's goroutine, asking
// for no compression, which the servers never apply. See Client.HTTP.
func NewClient(base string, maxConns int) *Client {
	if maxConns <= 0 {
		maxConns = http.DefaultMaxIdleConnsPerHost
	}
	return &Client{Base: base, HTTP: &http.Client{Transport: newTransport(maxConns)}}
}

// wire is how an exchange carries its bodies.
type wire uint8

const (
	wireJSON wire = iota // JSON request body (none on GET); the answer is decoded into resp
	wireBin              // one framed binproto record each way; the answer's payload is read into resp, a *[]byte, and returned
	wireRaw              // the answer's bytes are returned as they are
)

// tracing is the tracing of a query call: on asks the server to trace the
// request, id is the trace identity to adopt (0 lets it mint one).
type tracing struct {
	on bool
	id uint64
}

// do runs one request — data is its encoded body, nil for none — and
// retries transient failures when Retry is set.
func (c *Client) do(method, path string, wr wire, data []byte, traceID uint64, resp any) ([]byte, error) {
	if c.Retry == nil {
		return c.exchange(method, path, wr, data, traceID, resp)
	}
	r := c.Retry.withDefaults()
	var rng *rand.Rand // the seeded jitter source; most calls never retry and never build it
	mutating := mutating(path)
	delay := r.BaseDelay
	for attempt := 1; ; attempt++ {
		body, err := c.exchange(method, path, wr, data, traceID, resp)
		if err == nil || !retryable(err, mutating) || attempt == r.Attempts {
			return body, err
		}
		c.Counters.retried(err)
		// Jittered sleep in [delay/2, delay), context-aware.
		if rng == nil {
			rng = rand.New(rand.NewSource(r.Seed))
		}
		d := delay/2 + time.Duration(rng.Int63n(int64(delay/2)))
		if !c.sleep(d) {
			return nil, fmt.Errorf("%s: retry aborted after %d attempts: %w", path, attempt, err)
		}
		if delay *= 2; delay > r.MaxDelay {
			delay = r.MaxDelay
		}
	}
}

// sleep waits d, honoring the client's context; it reports false when the
// context expired first.
func (c *Client) sleep(d time.Duration) bool {
	if c.ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// exchange performs one HTTP exchange, its failure wrapped in a *url.Error as
// http.Client.Do wraps it. A nonzero traceID travels in traceIDHeader; no
// User-Agent travels at all.
func (c *Client) exchange(method, path string, wr wire, data []byte, traceID uint64, resp any) ([]byte, error) {
	c.Counters.attempt()
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rq := request{method: method, path: path, traceID: traceID, body: data}
	if wr == wireBin {
		rq.ctype = binType
	} else if data != nil {
		rq.ctype = jsonType
	}
	status, length, rc, err := c.send(ctx, &rq)
	if err != nil {
		return nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: c.Base + path, Err: err}
	}
	defer func() {
		io.Copy(io.Discard, rc) // drain so the connection is reused
		rc.Close()
	}()
	if status >= 400 {
		// Every error of the server is an ErrorResponse; anything else was
		// written by something in between (a proxy) and is passed on as text.
		raw, _ := io.ReadAll(io.LimitReader(rc, 4096))
		msg := strings.TrimSpace(string(raw))
		var er ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &StatusError{Code: status, Message: msg}
	}
	var payload []byte
	switch wr {
	case wireBin:
		buf := resp.(*[]byte)
		if payload, err = framing.ReadRecord(rc, binproto.MaxMessage, *buf); err == nil {
			*buf = payload
		}
	case wireRaw:
		return io.ReadAll(rc)
	case wireJSON:
		if resp != nil {
			err = ReadJSON(rc, length, math.MaxInt64, resp)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %s answer: %w", path, err)
	}
	return payload, nil
}

// send runs the exchange of rq and returns the answer's status, length (-1
// when unstated) and body. The package's own transport writes and reads it
// with its codec (transport.go); a foreign http.RoundTripper — an in-process
// handler, a test's fault injector — is handed an *http.Request.
func (c *Client) send(ctx context.Context, rq *request) (int, int64, io.ReadCloser, error) {
	var rt http.RoundTripper = sharedTransport
	if c.HTTP != nil && c.HTTP.Transport != nil {
		rt = c.HTTP.Transport
	}
	if t, ok := rt.(*transport); ok {
		var b *body
		var err error
		if rq.host, rq.prefix, err = splitBase(c.Base); err == nil {
			b, err = t.exchange(ctx, rq)
		}
		if err != nil {
			return 0, 0, nil, err
		}
		return b.status, b.length, b, nil
	}
	hreq, err := http.NewRequestWithContext(ctx, rq.method, c.Base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, 0, nil, err
	}
	hreq.Header["Content-Type"], hreq.Header["User-Agent"] = rq.ctype, nil
	if rq.traceID != 0 {
		hreq.Header[traceIDHeader] = []string{strconv.FormatUint(rq.traceID, 10)}
	}
	hresp, err := rt.RoundTrip(hreq)
	if err != nil {
		return 0, 0, nil, err
	}
	return hresp.StatusCode, hresp.ContentLength, hresp.Body, nil
}

// call sends a JSON request to path and decodes the answer into resp (which
// may be nil). The body is what appendReq appends to pooled scratch — nil for
// none, as a GET sends — and its failure is the call's.
func (c *Client) call(method, path string, appendReq func([]byte) ([]byte, error), resp any, tc tracing) error {
	var body []byte
	if appendReq != nil {
		buf := binproto.GetBuf()
		defer binproto.PutBuf(buf)
		var err error
		if body, err = appendReq((*buf)[:0]); err != nil {
			return fmt.Errorf("encoding %s request: %w", path, err)
		}
		*buf = body
	}
	if tc.on {
		path += "?trace=1"
	}
	_, err := c.do(method, path, wireJSON, body, tc.id, resp)
	return err
}

// Post sends req to an arbitrary POST endpoint and decodes the answer into
// resp — the escape hatch for tests and tooling that need to craft raw
// bodies past the typed methods' validation.
func (c *Client) Post(path string, req, resp any) error {
	return c.call(http.MethodPost, path, func([]byte) ([]byte, error) { return json.Marshal(req) }, resp, tracing{})
}

// callBin sends one encoded binproto message, inside the trace envelope when
// tc asks for tracing, and returns the plain message of the answer beside
// the trace its envelope carried. The request is framed into pooled scratch,
// and the answer is read into msg's storage, which the request no longer
// needs: the plain message is valid until msg is reused.
func (c *Client) callBin(path string, msg *[]byte, tc tracing) ([]byte, *TraceInfo, error) {
	if tc.on {
		*msg = binproto.TraceReq(*msg, tc.id)
	}
	frame := binproto.GetBuf()
	defer binproto.PutBuf(frame)
	*frame = framing.AppendRecord((*frame)[:0], *msg)
	payload, err := c.do(http.MethodPost, path, wireBin, *frame, 0, msg)
	if err != nil {
		return nil, nil, err
	}
	plain, traced, id, total, spans, err := binproto.UntraceResp(payload)
	if err != nil || !traced {
		return plain, nil, err
	}
	return plain, &TraceInfo{TraceID: id, TotalMS: total, Spans: spans}, nil
}

// window is the one window query: JSON or binary, traced or not.
func (c *Client) window(w geom.Rect, tech string, tc tracing) (QueryResponse, error) {
	win := [4]float64{w.MinX, w.MinY, w.MaxX, w.MaxY}
	if !c.Binary {
		var out QueryResponse
		err := c.call(http.MethodPost, "/query/window", func(b []byte) ([]byte, error) {
			if b, err := appendWindowReq(b, win, tech); err != errEscape {
				return b, err
			}
			return json.Marshal(WindowRequest{Window: win, Tech: tech}) // it escapes the name
		}, &out, tc)
		return out, err
	}
	t := store.TechDefault
	if tech != "" {
		var err error
		if t, err = store.TechByName(tech); err != nil {
			return QueryResponse{}, err
		}
	}
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	*buf = binproto.AppendWindowReq((*buf)[:0], win, t)
	return c.binQuery("/bin/window", buf, tc)
}

// binQuery sends an encoded window or point request and decodes the answer.
func (c *Client) binQuery(path string, msg *[]byte, tc tracing) (QueryResponse, error) {
	payload, tr, err := c.callBin(path, msg, tc)
	if err != nil {
		return QueryResponse{}, err
	}
	ids, cand, err := binproto.DecodeQueryResp(payload, []uint64{})
	if err != nil {
		return QueryResponse{}, err
	}
	return QueryResponse{IDs: ids, Candidates: cand, Trace: tr}, nil
}

// Window runs a window query; tech "" selects the server default.
func (c *Client) Window(w geom.Rect, tech string) (QueryResponse, error) {
	return c.window(w, tech, c.trace)
}

// WindowTraced runs a window query with per-request tracing: the answer
// carries the server's stage spans in Trace.
func (c *Client) WindowTraced(w geom.Rect, tech string) (QueryResponse, error) {
	return c.window(w, tech, tracing{on: true, id: c.trace.id})
}

// point is the one point query.
func (c *Client) point(p geom.Point, tc tracing) (QueryResponse, error) {
	pt := [2]float64{p.X, p.Y}
	if !c.Binary {
		var out QueryResponse
		err := c.call(http.MethodPost, "/query/point", func(b []byte) ([]byte, error) { return appendPointReq(b, pt, false, 0) }, &out, tc)
		return out, err
	}
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	*buf = binproto.AppendPointReq((*buf)[:0], pt)
	return c.binQuery("/bin/point", buf, tc)
}

// Point runs a point query.
func (c *Client) Point(p geom.Point) (QueryResponse, error) { return c.point(p, c.trace) }

// PointTraced runs a point query with per-request tracing.
func (c *Client) PointTraced(p geom.Point) (QueryResponse, error) {
	return c.point(p, tracing{on: true, id: c.trace.id})
}

// knn is the one k-nearest-neighbor query.
func (c *Client) knn(p geom.Point, k int, tc tracing) (KNNResponse, error) {
	pt := [2]float64{p.X, p.Y}
	if !c.Binary {
		var out KNNResponse
		err := c.call(http.MethodPost, "/query/knn", func(b []byte) ([]byte, error) { return appendPointReq(b, pt, true, k) }, &out, tc)
		return out, err
	}
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	*buf = binproto.AppendKNNReq((*buf)[:0], pt, k)
	payload, tr, err := c.callBin("/bin/knn", buf, tc)
	if err != nil {
		return KNNResponse{}, err
	}
	ids, dists, cand, err := binproto.DecodeKNNResp(payload, []uint64{}, []float64{})
	if err != nil {
		return KNNResponse{}, err
	}
	return KNNResponse{IDs: ids, Dists: dists, Candidates: cand, Trace: tr}, nil
}

// KNN runs a k-nearest-neighbor query.
func (c *Client) KNN(p geom.Point, k int) (KNNResponse, error) { return c.knn(p, k, c.trace) }

// KNNTraced runs a k-nearest-neighbor query with per-request tracing.
func (c *Client) KNNTraced(p geom.Point, k int) (KNNResponse, error) {
	return c.knn(p, k, tracing{on: true, id: c.trace.id})
}

// Insert stores an object under the given spatial key (typically
// o.Bounds(), possibly enlarged).
func (c *Client) Insert(o *object.Object, key geom.Rect) error {
	_, err := c.mutate(binproto.KindInsert, o, key)
	return err
}

// Update replaces the object of the same ID.
func (c *Client) Update(o *object.Object, key geom.Rect) (bool, error) {
	return c.mutate(binproto.KindUpdate, o, key)
}

// mutate is the one insert or update, JSON or binary.
func (c *Client) mutate(kind byte, o *object.Object, key geom.Rect) (bool, error) {
	k := [4]float64{key.MinX, key.MinY, key.MaxX, key.MaxY}
	path, binPath := "/insert", "/bin/insert"
	if kind == binproto.KindUpdate {
		path, binPath = "/update", "/bin/update"
	}
	if !c.Binary {
		var out MutateResponse
		err := c.call(http.MethodPost, path, func(b []byte) ([]byte, error) { return appendObjectReq(b, o, &k) }, &out, tracing{})
		return out.Existed, err
	}
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	*buf = binproto.AppendMutateReq((*buf)[:0], kind, o, &k)
	payload, _, err := c.callBin(binPath, buf, tracing{})
	if err != nil {
		return false, err
	}
	return binproto.DecodeMutateResp(payload)
}

// Delete removes an object, reporting whether it existed.
func (c *Client) Delete(id object.ID) (bool, error) {
	if c.Binary {
		buf := binproto.GetBuf()
		defer binproto.PutBuf(buf)
		*buf = binproto.AppendDeleteReq((*buf)[:0], uint64(id))
		payload, _, err := c.callBin("/bin/delete", buf, tracing{})
		if err != nil {
			return false, err
		}
		return binproto.DecodeMutateResp(payload)
	}
	var out MutateResponse
	err := c.call(http.MethodPost, "/delete", func(b []byte) ([]byte, error) { return appendDeleteReq(b, id) }, &out, tracing{})
	return out.Existed, err
}

// Recluster runs one maintenance pass of the named policy.
func (c *Client) Recluster(policy string) (ReclusterResponse, error) {
	var out ReclusterResponse
	err := c.Post("/recluster", ReclusterRequest{Policy: policy}, &out)
	return out, err
}

// Flush flushes the served store.
func (c *Client) Flush() error {
	return c.Post("/flush", struct{}{}, nil)
}

// Save snapshots the served store to a file on the server's filesystem.
func (c *Client) Save(path string) (SaveResponse, error) {
	var out SaveResponse
	err := c.Post("/save", PathRequest{Path: path}, &out)
	return out, err
}

// Load swaps the served store for one reopened from a snapshot.
func (c *Client) Load(path string) (StatsResponse, error) {
	var out StatsResponse
	err := c.Post("/load", PathRequest{Path: path}, &out)
	return out, err
}

// get fetches a GET endpoint's JSON answer into resp.
func (c *Client) get(path string, resp any) error {
	return c.call(http.MethodGet, path, nil, resp, tracing{})
}

// Stats fetches the storage statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.get("/stats", &out)
	return out, err
}

// Metrics fetches the server metrics.
func (c *Client) Metrics() (Metrics, error) {
	var out Metrics
	err := c.get("/metrics", &out)
	return out, err
}

// Raw GETs a path and returns the body bytes as-is — for scraping the
// Prometheus representation of /metrics, which is not JSON.
func (c *Client) Raw(path string) ([]byte, error) {
	return c.do(http.MethodGet, path, wireRaw, nil, 0, nil)
}

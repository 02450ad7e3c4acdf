package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
)

// The one request path. A Front turns HTTP into calls on a Service: it owns
// everything between the socket and the six operations — method checks, body
// limits, decoding and validation in either codec, admission control, the
// per-endpoint counters, the slow-query log, tracing, the mapping of errors
// to statuses and the encoding of answers — so the tiers behind it (the
// queries and dispatcher of a Server, the scatter/merge of a router) hold no
// HTTP.

// Service is the data plane: the six operations in engine types. *Server
// implements it over its store, the router over its shards; the Front
// serves either.
type Service interface {
	Window(rq *Request, win geom.Rect, tech store.Technique) (store.QueryResult, error)
	Point(rq *Request, pt geom.Point) (store.QueryResult, error)
	KNN(rq *Request, pt geom.Point, k int) (store.NearestResult, error)
	Insert(rq *Request, o *object.Object, key geom.Rect) error
	Update(rq *Request, o *object.Object, key geom.Rect) (existed bool, err error)
	Delete(rq *Request, id object.ID) (existed bool, err error)
}

// Request is the per-request record the Front hands a Service beside the
// operation's arguments. Ctx and Trace travel in; what the slow-query log
// wants to know about the execution travels back out.
type Request struct {
	// Ctx is the HTTP request's. A Server answers a request whose Ctx is done
	// when it gets the organization lock (a query) or its batch is picked up
	// (a mutation) with the context's error instead of running it; a router
	// hands Ctx to every shard exchange, so a caller that went away or ran
	// out of time aborts its scatter. Nil never expires.
	Ctx   context.Context
	Trace *obs.Trace // nil unless the request asked to be traced

	// Filled by the Service.
	QueueNS int64  // query: organization lock wait; mutation: dispatcher queue wait
	ExecNS  int64  // store execution
	Shard   string // router: address of the slowest shard touched
}

// StatusError is a non-2xx answer: the HTTP status plus the error message.
// The client returns one for every such answer; a Service returns one to
// choose the status of its failure (any other error is a 500).
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server answered %d: %s", e.Code, e.Message)
}

// IsOverload reports whether err is a 429 admission rejection.
func IsOverload(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

func statusErr(code int, format string, args ...any) error {
	return &StatusError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// statusClientClosed is the status (nginx's, no RFC has one) of a request
// whose caller hung up before it was answered.
const statusClientClosed = 499

// statusOf is the status and message err is answered with. A Service returns
// the bare error of a request's own context when that ended before the
// answer; it is the caller's doing, not a server failure.
func statusOf(err error) (int, string) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Code, se.Message
	case errors.Is(err, context.Canceled):
		return statusClientClosed, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

// badRequest turns a decoding or validation failure into a 400.
func badRequest(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		return err
	}
	return &StatusError{Code: http.StatusBadRequest, Message: err.Error()}
}

// Front serves a Service, and whatever control plane its owner mounts with
// Handle, over HTTP. Create it with NewFront; mount everything before the
// first request is served.
type Front struct {
	// Ready, when set, is asked by GET /readyz once the Front itself is
	// still accepting work; its error becomes the 503.
	Ready func(context.Context) error

	svc         Service
	prefix      string // of the Prometheus families: "sdb" or "sdbrouter"
	mux         *http.ServeMux
	start       time.Time
	maxInFlight int
	inflight    chan struct{} // admission semaphore, capacity maxInFlight
	exclMu      sync.Mutex    // serializes the holders of every permit
	closed      atomic.Bool
	endpoints   map[string]*mounted // fixed once mounting is over
	slow        *obs.SlowLog
	kept        keptConns
}

// NewFront builds the handler tree of svc: the six operations under
// /query/*, /insert, /update, /delete (JSON) and /bin/* (binproto), GET
// /debug/slowlog, /healthz and /readyz, and net/http/pprof under
// /debug/pprof/ when asked. maxInFlight ≤ 0 selects 256; slowLogMS is the
// slow-query threshold (0 selects 250 ms, negative disables the log).
func NewFront(svc Service, prefix string, maxInFlight int, slowLogMS float64, withPprof bool) *Front {
	if maxInFlight <= 0 {
		maxInFlight = 256
	}
	threshold := time.Duration(slowLogMS * float64(time.Millisecond))
	if slowLogMS == 0 {
		threshold = 250 * time.Millisecond
	}
	f := &Front{
		svc:         svc,
		prefix:      prefix,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		maxInFlight: maxInFlight,
		inflight:    make(chan struct{}, maxInFlight),
		endpoints:   make(map[string]*mounted),
		slow:        obs.NewSlowLog(threshold, 128),
	}
	for _, op := range []struct {
		json, bin string
		serve     func(*Front, *statusRecorder, bool)
	}{
		{"/query/window", "/bin/window", (*Front).window},
		{"/query/point", "/bin/point", (*Front).point},
		{"/query/knn", "/bin/knn", (*Front).knn},
		{"/insert", "/bin/insert", (*Front).insert},
		{"/update", "/bin/update", (*Front).update},
		{"/delete", "/bin/delete", (*Front).delete},
	} {
		f.mount(&mounted{path: op.json, method: http.MethodPost, g: gateAdmit, op: func(x *statusRecorder) {
			x.rq.Trace = traceFor(x.query, x.traceID)
			op.serve(f, x, false)
		}})
		f.mount(&mounted{path: op.bin, method: http.MethodPost, g: gateAdmit, op: func(x *statusRecorder) {
			op.serve(f, x, true)
		}})
	}
	f.Handle(http.MethodGet, "/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, slowLogResponse{
			ThresholdMS: f.slow.Threshold().Seconds() * 1000,
			Total:       f.slow.Total(),
			Entries:     f.slow.Entries(),
		}, nil)
	})
	f.mux.HandleFunc("/healthz", f.probe) // liveness: the process serves HTTP
	f.mux.HandleFunc("/readyz", f.probe)
	if withPprof {
		f.mux.HandleFunc("/debug/pprof/", pprof.Index)
		f.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		f.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		f.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		f.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return f
}

// Handler returns the handler tree. Served as an http.Server's whole
// Handler, it serves the data plane of that server's HTTP/1.1 connections
// itself (kept.go).
func (f *Front) Handler() http.Handler { return (*handler)(f) }

// Shutdown turns new work away with 503, closes the idle connections the
// Front keeps, and waits for what is in flight, every request already read on
// a kept connection included. Call it after the http.Server's Shutdown, which
// does not see those connections.
func (f *Front) Shutdown(ctx context.Context) error {
	release, err := f.close(ctx)
	if release != nil {
		release()
	}
	return err
}

// What a daemon's listener grants a connection that sends nothing. A request
// body must arrive within readHeaderTimeout of its head (the server's
// ReadHeaderTimeout when set), before the request takes its admission permit;
// there is no deadline on the rest of a request: /save, /load and a CPU
// profile legitimately run long.
const (
	readHeaderTimeout = 10 * time.Second // to finish the request headers, and then its body
	idleTimeout       = 2 * time.Minute  // between requests of a keep-alive connection
)

// HTTPServer returns the http.Server the daemons (sdbd, sdbrouter) serve a
// handler tree with: a peer that never finishes its headers, or parks an
// idle connection, cannot pin it forever.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Handle mounts a control-plane endpoint. Every endpoint is counted, timed
// and offered to the slow-query log; a POST endpoint also passes admission
// control, a GET endpoint does not (introspection must keep answering under
// overload).
func (f *Front) Handle(method, path string, fn http.HandlerFunc) {
	g := gateOpen
	if method == http.MethodPost {
		g = gateAdmit
	}
	f.handle(method, path, g, fn)
}

func (f *Front) handle(method, path string, g gate, fn http.HandlerFunc) {
	f.mount(&mounted{path: path, method: method, g: g, serve: fn})
}

// probe answers /healthz and /readyz. Readiness ends when shutdown begins
// (load balancers stop routing before the drain) or the owner's Ready fails.
func (f *Front) probe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		Reply(w, nil, statusErr(http.StatusMethodNotAllowed, "%s needs GET", r.URL.Path))
		return
	}
	if r.URL.Path == "/readyz" {
		if f.closed.Load() {
			Reply(w, nil, errShuttingDown)
			return
		}
		if f.Ready != nil {
			if err := f.Ready(r.Context()); err != nil {
				_, why := statusOf(err)
				Reply(w, nil, statusErr(http.StatusServiceUnavailable, "%s", why))
				return
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// --- admission, instrumentation ---

// gate is how much of the admission semaphore an endpoint takes.
type gate uint8

const (
	gateOpen      gate = iota // none
	gateAdmit                 // one permit; 429 at once when none is free
	gateExclusive             // every permit: nothing else is in flight
)

var errShuttingDown = statusErr(http.StatusServiceUnavailable, "server is shutting down")

// statusRecorder is one request being served: the record the Service reads
// and fills, its held body and where its trace switch came from, and its
// status — on net/http's path the ResponseWriter's too, while a data-plane
// answer waits in out until the request is counted (send).
type statusRecorder struct {
	http.ResponseWriter           // nil on a kept connection
	kept                *keptConn // nil on net/http's path
	status              int
	rq                  Request
	held                heldBody
	query, traceID      string    // the raw query and trace header of a data-plane request
	ctype               []string  // out's Content-Type
	out                 *[]byte   // a data-plane answer's body, in pooled scratch
	length              [1]string // the Content-Length header's value (send)
}

func (x *statusRecorder) WriteHeader(status int) {
	x.status = status
	x.ResponseWriter.WriteHeader(status)
}

// fail makes err the answer: the ErrorResponse every non-2xx answer of either
// codec carries, the bytes Reply writes.
func (x *statusRecorder) fail(err error) {
	status, msg := statusOf(err)
	b, _ := json.Marshal(ErrorResponse{Error: msg})
	b = append(b, '\n')
	x.status, x.ctype, x.out = status, jsonType, &b
}

// send writes the answer in out, once the request is counted: framed by the
// kept loop, or through the ResponseWriter with its length stated, so
// net/http does not chunk it. A control-plane handler wrote its own.
func (x *statusRecorder) send() {
	if x.out == nil {
		return
	}
	if x.kept != nil {
		x.kept.frame(x.status, x.ctype[0], *x.out)
	} else {
		h := x.Header()
		h["Content-Type"] = x.ctype
		x.length[0] = strconv.Itoa(len(*x.out))
		h["Content-Length"] = x.length[:]
		x.ResponseWriter.WriteHeader(x.status)
		x.Write(*x.out) // a failed write means the client is gone
	}
	binproto.PutBuf(x.out)
	x.out = nil
}

// mounted is one instrumented endpoint: its counters, and how it is served —
// a control-plane handler, or a data-plane operation, which reads the held
// body and answers once.
type mounted struct {
	endpointCounters
	path, method string
	g            gate
	serve        http.HandlerFunc
	op           func(*statusRecorder)
}

// mount registers an instrumented endpoint: net/http reaches it through the
// mux, a kept connection a data-plane one directly.
func (f *Front) mount(m *mounted) {
	f.endpoints[m.path] = m
	f.mux.HandleFunc(m.path, func(w http.ResponseWriter, r *http.Request) {
		f.serveMounted(m, &statusRecorder{ResponseWriter: w}, r)
	})
}

// serveMounted serves an instrumented endpoint on net/http's path. A gated
// request's body is read whole before it takes its permit, so a peer that
// stalls its body holds no permit while it does.
func (f *Front) serveMounted(m *mounted, x *statusRecorder, r *http.Request) {
	defer x.send()
	if r.Method != m.method {
		x.fail(statusErr(http.StatusMethodNotAllowed, "%s needs %s", m.path, m.method))
		return
	}
	if m.g != gateOpen && f.closed.Load() {
		x.fail(errShuttingDown)
		return
	}
	if m.g != gateOpen {
		rc := http.NewResponseController(x.ResponseWriter)
		rc.SetReadDeadline(time.Now().Add(bodyTimeout(r.Context())))
		x.held.hold(r.Body, r.ContentLength)
		defer x.held.release()
		if x.held.err == nil { // else the connection ends with the answer: let its reads fail
			rc.SetReadDeadline(time.Time{})
		}
		r.Body = &x.held
	}
	x.query, x.traceID = r.URL.RawQuery, r.Header.Get(traceIDHeader)
	f.run(m, x, r.Context(), r)
}

// run is the one wrapper every instrumented endpoint runs in, on either path:
// admission, then the endpoint, counted, timed and offered to the slow-query
// log. r is nil on a kept connection.
func (f *Front) run(m *mounted, x *statusRecorder, ctx context.Context, r *http.Request) {
	switch m.g {
	case gateAdmit:
		// Bounded latency under overload beats an unbounded queue.
		select {
		case f.inflight <- struct{}{}:
		default:
			m.rejected.Add(1)
			x.fail(statusErr(http.StatusTooManyRequests, "overloaded: %d requests in flight", f.maxInFlight))
			return
		}
		defer func() { <-f.inflight }()
	case gateExclusive:
		f.exclMu.Lock()
		defer f.exclMu.Unlock()
		release, err := f.quiesce(ctx)
		if err != nil {
			x.fail(statusErr(http.StatusServiceUnavailable, "%v", err))
			return
		}
		defer release()
	}
	x.status = http.StatusOK
	x.rq.Ctx = ctx
	start := time.Now()
	if m.op != nil {
		m.op(x)
	} else {
		m.serve(x, r)
	}
	d := time.Since(start)
	m.observe(d, x.status >= 400)
	f.slow.Note(obs.SlowEntry{
		Endpoint: m.path,
		Status:   x.status,
		Time:     start,
		WallMS:   d.Seconds() * 1000,
		QueueMS:  float64(x.rq.QueueNS) / 1e6,
		ExecMS:   float64(x.rq.ExecNS) / 1e6,
		Shard:    x.rq.Shard,
	})
}

// quiesceTimeout caps how long an exclusive endpoint or a shutdown waits for
// the requests in flight to drain.
const quiesceTimeout = 30 * time.Second

// quiesce waits until nothing else is in flight by acquiring every admission
// permit, and returns a release function. It must not be called while
// holding a permit.
func (f *Front) quiesce(ctx context.Context) (release func(), err error) {
	ctx, cancel := context.WithTimeout(ctx, quiesceTimeout)
	defer cancel()
	held := 0
	releaseHeld := func() {
		for i := 0; i < held; i++ {
			<-f.inflight
		}
	}
	for held < f.maxInFlight {
		select {
		case f.inflight <- struct{}{}:
			held++
		case <-ctx.Done():
			releaseHeld()
			return nil, fmt.Errorf("waiting for %d in-flight requests: %w",
				f.maxInFlight-held, ctx.Err())
		}
	}
	return releaseHeld, nil
}

// close turns new work away with 503 and drains what is in flight: it
// returns holding every permit, and release gives them back. A second call
// returns a nil release — shutdown has already begun.
func (f *Front) close(ctx context.Context) (release func(), err error) {
	if !f.closed.CompareAndSwap(false, true) {
		return nil, nil
	}
	if err := f.kept.drain(ctx); err != nil {
		return nil, err
	}
	f.exclMu.Lock()
	permits, err := f.quiesce(ctx)
	if err != nil {
		f.exclMu.Unlock()
		return nil, err
	}
	return func() { permits(); f.exclMu.Unlock() }, nil
}

// --- trace from request ---

// traceIDHeader is the JSON protocol's trace-context hop: a gateway (the
// router) forwards its trace ID here alongside ?trace=1, so the shard's
// sub-trace shares the identity of the distributed trace it belongs to. The
// binary protocol carries both in the trace envelope of its messages.
const traceIDHeader = "X-Sdb-Trace-Id"

// traceFor starts the trace of a JSON request that asked for one with
// ?trace=1 (any non-empty value except "0") in its raw query, under the
// identity in its trace header; otherwise it returns nil, which every trace
// method accepts and ignores.
func traceFor(query, traceID string) *obs.Trace {
	if query == "" { // parsing no query would still build its map
		return nil
	}
	if q, _ := url.ParseQuery(query); q.Get("trace") == "" || q.Get("trace") == "0" {
		return nil
	}
	id, _ := strconv.ParseUint(traceID, 10, 64)
	return newTrace(id)
}

// newTrace starts a trace, adopting a propagated (nonzero) identity instead
// of minting a fresh one.
func newTrace(id uint64) *obs.Trace {
	if id != 0 {
		return obs.NewTraceWithID(id)
	}
	return obs.NewTrace()
}

// traceInfo converts a finished trace to its wire form (nil stays nil).
func traceInfo(tr *obs.Trace) *TraceInfo {
	if tr == nil {
		return nil
	}
	return &TraceInfo{TraceID: tr.ID(), TotalMS: tr.TotalMS(), Spans: tr.Spans()}
}

// --- bodies ---

// maxBodyBytes bounds request bodies; a polyline of a million vertices is a
// client bug, not a request. The binary codec's bound is the same payload
// plus its frame header.
const maxBodyBytes = binproto.MaxMessage

// The Content-Type values of both codecs, shared by every exchange; read only.
var (
	jsonType = []string{"application/json"}
	binType  = []string{binproto.ContentType}
)

// Reply answers a control-plane endpoint: v with 200, or — when err is set —
// the ErrorResponse every non-2xx answer of either codec carries, under the
// status of a *StatusError and 500 for anything else.
func Reply(w http.ResponseWriter, v any, err error) {
	status := http.StatusOK
	if err != nil {
		var msg string
		status, msg = statusOf(err)
		v = ErrorResponse{Error: msg}
	}
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) // a failed write means the client is gone; nothing to do
}

// readBinRecord reads the request's single framed record into pooled
// scratch, starts the trace its envelope asks for, and hands the plain
// message to decode, which must keep nothing of it.
func readBinRecord(x *statusRecorder, decode func(msg []byte) error) error {
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	body := &x.held
	payload, err := framing.ReadRecord(body, maxBodyBytes, *buf)
	if err != nil {
		return badRequest(fmt.Errorf("bad binary frame: %w", err))
	}
	if *buf = payload; len(body.b) > 0 || body.more {
		return badRequest(errors.New("trailing data after request body"))
	}
	msg, traceID, traced, err := binproto.UntraceReq(payload)
	if err != nil {
		return badRequest(err)
	}
	if traced {
		x.rq.Trace = newTrace(traceID)
	}
	return decode(msg)
}

// reply leaves the answer of a data-plane request: err, or what enc appends
// to pooled scratch in the request's codec. A binary answer is framed, inside
// the trace envelope when the request was traced; a traced JSON answer gets
// its trace member from json.Marshal after the appender, which writes the
// untraced body, has run — json.Encoder's bytes for the answer struct either
// way.
func reply(x *statusRecorder, bin bool, err error, enc func(dst []byte) ([]byte, error)) {
	buf, ctype, tr := binproto.GetBuf(), jsonType, x.rq.Trace
	if err == nil {
		*buf, err = enc((*buf)[:0])
	}
	switch {
	case err != nil:
		binproto.PutBuf(buf)
		x.fail(err)
		return
	case bin:
		if tr != nil {
			*buf = binproto.TraceResp(*buf, tr.ID(), tr.TotalMS(), tr.Spans())
		}
		frame := binproto.GetBuf()
		*frame = framing.AppendRecord((*frame)[:0], *buf)
		binproto.PutBuf(buf)
		buf, ctype = frame, binType
	case tr != nil:
		info, _ := json.Marshal(traceInfo(tr))
		*buf = append(append(append((*buf)[:len(*buf)-2], `,"trace":`...), info...), "}\n"...)
	}
	x.status, x.ctype, x.out = http.StatusOK, ctype, buf
}

// --- the six operations ---
//
// Each decodes its arguments from either codec, validates them the same way
// for both, calls the Service and encodes the answer.

func (f *Front) window(x *statusRecorder, bin bool) {
	var (
		win  [4]float64
		tech = store.TechDefault
		err  error
	)
	if bin {
		err = readBinRecord(x, func(msg []byte) (err error) {
			win, tech, err = binproto.DecodeWindowReq(msg)
			return err
		})
	} else {
		var req WindowRequest
		if err = ReadJSON(&x.held, x.held.n, maxBodyBytes, &req); err == nil {
			win = req.Window
			if req.Tech != "" {
				tech, err = store.TechByName(req.Tech)
			}
		}
	}
	if err != nil {
		x.fail(badRequest(err))
		return
	}
	res, err := f.svc.Window(&x.rq, geom.R(win[0], win[1], win[2], win[3]), tech)
	replyQuery(x, bin, res, err)
}

func (f *Front) point(x *statusRecorder, bin bool) {
	var (
		pt  [2]float64
		err error
	)
	if bin {
		err = readBinRecord(x, func(msg []byte) (err error) {
			pt, err = binproto.DecodePointReq(msg)
			return err
		})
	} else {
		var req PointRequest
		err = ReadJSON(&x.held, x.held.n, maxBodyBytes, &req)
		pt = req.Point
	}
	if err != nil {
		x.fail(badRequest(err))
		return
	}
	res, err := f.svc.Point(&x.rq, geom.Pt(pt[0], pt[1]))
	replyQuery(x, bin, res, err)
}

func (f *Front) knn(x *statusRecorder, bin bool) {
	var (
		pt  [2]float64
		k   int
		err error
	)
	if bin {
		err = readBinRecord(x, func(msg []byte) (err error) {
			pt, k, err = binproto.DecodeKNNReq(msg)
			return err
		})
	} else {
		var req KNNRequest
		err = ReadJSON(&x.held, x.held.n, maxBodyBytes, &req)
		pt, k = req.Point, req.K
	}
	// The bound is the binary codec's u32 field: a larger k would be
	// truncated on a binary hop further down.
	if err == nil && (k < 1 || k > math.MaxInt32) {
		err = fmt.Errorf("k must be between 1 and %d, got %d", math.MaxInt32, k)
	}
	if err != nil {
		x.fail(badRequest(err))
		return
	}
	res, err := f.svc.KNN(&x.rq, geom.Pt(pt[0], pt[1]), k)
	reply(x, bin, err, func(dst []byte) ([]byte, error) {
		if bin {
			return binproto.AppendKNNResp(dst, res.IDs, res.Dists, res.Candidates), nil
		}
		return appendAnswer(dst, res.IDs, res.Dists, true, res.Candidates)
	})
}

// replyQuery answers a window or point query.
func replyQuery(x *statusRecorder, bin bool, res store.QueryResult, err error) {
	reply(x, bin, err, func(dst []byte) ([]byte, error) {
		if bin {
			return binproto.AppendQueryResp(dst, res.IDs, res.Candidates), nil
		}
		return appendAnswer(dst, res.IDs, nil, false, res.Candidates)
	})
}

func (f *Front) insert(x *statusRecorder, bin bool) {
	o, key, err := readObject(x, bin, binproto.KindInsert)
	if err == nil {
		err = f.svc.Insert(&x.rq, o, key)
	}
	replyMutate(x, bin, false, err)
}

func (f *Front) update(x *statusRecorder, bin bool) {
	o, key, err := readObject(x, bin, binproto.KindUpdate)
	existed := false
	if err == nil {
		existed, err = f.svc.Update(&x.rq, o, key)
	}
	replyMutate(x, bin, existed, err)
}

func (f *Front) delete(x *statusRecorder, bin bool) {
	var (
		id  uint64
		err error
	)
	if bin {
		err = readBinRecord(x, func(msg []byte) (err error) {
			id, err = binproto.DecodeDeleteReq(msg)
			return err
		})
	} else {
		var req DeleteRequest
		err = ReadJSON(&x.held, x.held.n, maxBodyBytes, &req)
		id = req.ID
	}
	if err != nil {
		x.fail(badRequest(err))
		return
	}
	existed, err := f.svc.Delete(&x.rq, object.ID(id))
	replyMutate(x, bin, existed, err)
}

// readObject decodes an insert or update body into an engine object and its
// spatial key (the object's bounds when the request names none). Both codecs
// check the vertex count against the geometry kind before they build it — the
// constructors of geom panic on a degenerate chain — and an object that
// object.CheckKey refuses, a NaN vertex or a key short of the object, answers
// 400 before the Service sees it.
func readObject(x *statusRecorder, bin bool, kind byte) (*object.Object, geom.Rect, error) {
	var (
		o   *object.Object
		key *[4]float64
		err error
	)
	if bin {
		err = readBinRecord(x, func(msg []byte) (err error) {
			o, key, err = binproto.DecodeMutateReq(msg, kind)
			return err
		})
	} else {
		var req InsertRequest
		if err = ReadJSON(&x.held, x.held.n, maxBodyBytes, &req); err == nil {
			o, err = req.Object.toObject()
			key = req.Key
		}
	}
	if err != nil {
		return nil, geom.Rect{}, badRequest(err)
	}
	k := o.Bounds()
	if key != nil {
		k = geom.R(key[0], key[1], key[2], key[3])
	}
	if err := o.CheckKey(k); err != nil {
		return nil, geom.Rect{}, badRequest(err)
	}
	return o, k, nil
}

// replyMutate answers insert, update and delete.
func replyMutate(x *statusRecorder, bin bool, existed bool, err error) {
	reply(x, bin, err, func(dst []byte) ([]byte, error) {
		if bin {
			return binproto.AppendMutateResp(dst, existed), nil
		}
		return appendMutate(dst, existed), nil
	})
}

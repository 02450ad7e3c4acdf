package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// fakeService is the Front's Service in these tests: it answers every
// operation with canned values, reports a fixed slow-log attribution, and can
// be told to fail or to hold its callers.
type fakeService struct {
	err     error         // returned by every operation
	entered chan struct{} // when set, an operation announces itself here ...
	release chan struct{} // ... and waits here, holding its admission permit
	calls   atomic.Int64
	traceID atomic.Uint64 // identity of the last request's trace
	window  []object.ID   // when set, every window's answer
}

func (s *fakeService) serve(rq *Request) error {
	s.calls.Add(1)
	s.traceID.Store(rq.Trace.ID())
	rq.QueueNS, rq.ExecNS, rq.Shard = 2e6, 3e6, "shard-7"
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.err
}

func (s *fakeService) Window(rq *Request, _ geom.Rect, _ store.Technique) (store.QueryResult, error) {
	if s.window != nil {
		return store.QueryResult{IDs: s.window, Candidates: len(s.window)}, s.serve(rq)
	}
	return store.QueryResult{IDs: []object.ID{3, 1 << 60}, Candidates: 5}, s.serve(rq)
}

func (s *fakeService) Point(rq *Request, _ geom.Point) (store.QueryResult, error) {
	return store.QueryResult{}, s.serve(rq)
}

func (s *fakeService) KNN(rq *Request, _ geom.Point, k int) (store.NearestResult, error) {
	return store.NearestResult{
		QueryResult: store.QueryResult{IDs: []object.ID{9}, Candidates: k},
		Dists:       []float64{0.25},
	}, s.serve(rq)
}

func (s *fakeService) Insert(rq *Request, _ *object.Object, _ geom.Rect) error { return s.serve(rq) }

func (s *fakeService) Update(rq *Request, _ *object.Object, _ geom.Rect) (bool, error) {
	return true, s.serve(rq)
}

func (s *fakeService) Delete(rq *Request, _ object.ID) (bool, error) { return true, s.serve(rq) }

// frame wraps a binproto message into the one framed record of a /bin body.
func frame(msg []byte) []byte { return framing.AppendRecord(nil, msg) }

// frontOp is one operation with a valid body in each codec.
type frontOp struct {
	jsonPath, binPath string
	jsonBody          string
	binBody           []byte
}

func frontOps() []frontOp {
	obj := object.New(1, geom.NewPolyline([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}), 0)
	const objJSON = `{"object":{"id":1,"kind":"polyline","vertices":[[0,0],[1,1]]}}`
	return []frontOp{
		{"/query/window", "/bin/window", `{"window":[0,0,1,1]}`,
			frame(binproto.AppendWindowReq(nil, [4]float64{0, 0, 1, 1}, store.TechSLM))},
		{"/query/point", "/bin/point", `{"point":[0.5,0.5]}`,
			frame(binproto.AppendPointReq(nil, [2]float64{0.5, 0.5}))},
		{"/query/knn", "/bin/knn", `{"point":[0.5,0.5],"k":3}`,
			frame(binproto.AppendKNNReq(nil, [2]float64{0.5, 0.5}, 3))},
		{"/insert", "/bin/insert", objJSON,
			frame(binproto.AppendMutateReq(nil, binproto.KindInsert, obj, nil))},
		{"/update", "/bin/update", objJSON,
			frame(binproto.AppendMutateReq(nil, binproto.KindUpdate, obj, nil))},
		{"/delete", "/bin/delete", `{"id":1}`,
			frame(binproto.AppendDeleteReq(nil, 1))},
	}
}

// each runs fn for every operation in both codecs.
func eachCodec(t *testing.T, fn func(t *testing.T, path string, body []byte)) {
	for _, op := range frontOps() {
		t.Run(op.jsonPath, func(t *testing.T) { fn(t, op.jsonPath, []byte(op.jsonBody)) })
		t.Run(op.binPath, func(t *testing.T) { fn(t, op.binPath, op.binBody) })
	}
}

func do(f *Front, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// wantError requires the one error shape: the status, and an ErrorResponse
// body whatever codec the request spoke.
func wantError(t *testing.T, rec *httptest.ResponseRecorder, status int) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("status %d with body %q: not an ErrorResponse (%v)", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != status {
		t.Fatalf("status %d (%s), want %d", rec.Code, er.Error, status)
	}
	return er.Error
}

func TestFrontAnswersBothCodecs(t *testing.T) {
	svc := &fakeService{}
	f := NewFront(svc, "test", 0, -1, false)
	eachCodec(t, func(t *testing.T, path string, body []byte) {
		if rec := do(f, http.MethodPost, path, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	})
	if got := svc.calls.Load(); got != 12 {
		t.Fatalf("service saw %d calls, want 12", got)
	}

	// The two codecs spell one answer.
	ops := frontOps()
	var jr QueryResponse
	if err := json.Unmarshal(do(f, http.MethodPost, ops[0].jsonPath, []byte(ops[0].jsonBody)).Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	payload, err := framing.ReadRecord(do(f, http.MethodPost, ops[0].binPath, ops[0].binBody).Body, binproto.MaxMessage, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, cand, err := binproto.DecodeQueryResp(payload, nil)
	if err != nil || cand != jr.Candidates || len(ids) != 2 || ids[0] != jr.IDs[0] || ids[1] != jr.IDs[1] || ids[1] != 1<<60 {
		t.Fatalf("binary answer %v/%d (%v), JSON answer %v/%d", ids, cand, err, jr.IDs, jr.Candidates)
	}
	// An empty answer is [], never null.
	if body := do(f, http.MethodPost, ops[1].jsonPath, []byte(ops[1].jsonBody)).Body.String(); !strings.Contains(body, `"ids":[]`) {
		t.Fatalf("empty point answer: %s", body)
	}

	// Both codecs carry a trace request and a propagated identity.
	req := httptest.NewRequest(http.MethodPost, "/query/knn?trace=1", strings.NewReader(ops[2].jsonBody))
	req.Header.Set(traceIDHeader, "77")
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	var kr KNNResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil || kr.Trace == nil || kr.Trace.TraceID != 77 || svc.traceID.Load() != 77 {
		t.Fatalf("traced JSON k-NN: %s (service saw trace %d)", rec.Body.String(), svc.traceID.Load())
	}
	traced := frame(binproto.TraceReq(binproto.AppendKNNReq(nil, [2]float64{0.5, 0.5}, 3), 78))
	payload, err = framing.ReadRecord(do(f, http.MethodPost, "/bin/knn", traced).Body, binproto.MaxMessage, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, isTraced, id, _, _, err := binproto.UntraceResp(payload); err != nil || !isTraced || id != 78 || svc.traceID.Load() != 78 {
		t.Fatalf("traced binary k-NN: traced %v id %d err %v (service saw trace %d)", isTraced, id, err, svc.traceID.Load())
	}
}

// TestTracedJSONAnswerBytes: a traced JSON answer — the untraced appender's
// body with the trace member json.Marshal writes — is, byte for byte, what
// json.Encoder writes for the answer struct, on net/http's path and on a kept
// connection alike.
func TestTracedJSONAnswerBytes(t *testing.T) {
	f := NewFront(&fakeService{}, "test", 0, -1, false)
	hs := httptest.NewServer(f.Handler())
	defer hs.Close()
	kc := keptConnTo(t, hs.Listener.Addr().String())
	for i, op := range frontOps() {
		path := op.jsonPath + "?trace=1"
		kc.send(t, post(path, "", op.jsonBody))
		_, kept := kc.answer(t, http.MethodPost)
		for _, body := range [][]byte{do(f, http.MethodPost, path, []byte(op.jsonBody)).Body.Bytes(), kept} {
			var v any = &QueryResponse{}
			if i == 2 {
				v = &KNNResponse{}
			} else if i > 2 {
				v = &MutateResponse{}
			}
			var want bytes.Buffer
			if err := json.Unmarshal(body, v); err != nil || !strings.Contains(string(body), `"trace":{`) {
				t.Fatalf("%s: %q is no traced answer (%v)", path, body, err)
			}
			json.NewEncoder(&want).Encode(v)
			if !bytes.Equal(body, want.Bytes()) {
				t.Errorf("%s answers %q, json.Encoder writes %q", path, body, want.Bytes())
			}
		}
	}
}

func TestFrontRejectsBeforeTheService(t *testing.T) {
	svc := &fakeService{}
	f := NewFront(svc, "test", 0, -1, false)

	t.Run("method", func(t *testing.T) {
		eachCodec(t, func(t *testing.T, path string, body []byte) {
			wantError(t, do(f, http.MethodGet, path, nil), http.StatusMethodNotAllowed)
		})
		wantError(t, do(f, http.MethodPost, "/debug/slowlog", nil), http.StatusMethodNotAllowed)
		wantError(t, do(f, http.MethodPost, "/healthz", nil), http.StatusMethodNotAllowed)
	})
	t.Run("torn body", func(t *testing.T) {
		eachCodec(t, func(t *testing.T, path string, body []byte) {
			wantError(t, do(f, http.MethodPost, path, body[:len(body)-3]), http.StatusBadRequest)
		})
	})
	t.Run("trailing garbage", func(t *testing.T) {
		eachCodec(t, func(t *testing.T, path string, body []byte) {
			for _, tail := range []string{` {"x":1}`, "}", " ]"} {
				garbage := append(append([]byte(nil), body...), tail...)
				wantError(t, do(f, http.MethodPost, path, garbage), http.StatusBadRequest)
			}
		})
	})
	t.Run("oversized body", func(t *testing.T) {
		big := `{"window":[0,0,1,1],"tech":"` + strings.Repeat("a", maxBodyBytes) + `"}`
		wantError(t, do(f, http.MethodPost, "/query/window", []byte(big)), http.StatusBadRequest)
		var hdr [8]byte // a frame announcing one byte more than the cap
		binary.LittleEndian.PutUint32(hdr[:], binproto.MaxMessage+1)
		wantError(t, do(f, http.MethodPost, "/bin/window", hdr[:]), http.StatusBadRequest)
	})
	t.Run("the other codec's body", func(t *testing.T) {
		op := frontOps()[0]
		wantError(t, do(f, http.MethodPost, op.binPath, []byte(op.jsonBody)), http.StatusBadRequest)
		wantError(t, do(f, http.MethodPost, op.jsonPath, op.binBody), http.StatusBadRequest)
	})
	// A list of the wrong length or a required member left out: encoding/json
	// would cut or zero-fill an array and leave an absent member zero — {} on
	// /delete would delete object 0. Each body goes once as written, which the
	// scanner reads, and once with a space after every colon, which it
	// declines to encoding/json.
	t.Run("malformed or missing argument", func(t *testing.T) {
		const obj = `"kind":"polyline","vertices":[[0,0],[1,1]]`
		for _, c := range []struct{ path, body string }{
			{"/query/window", `{"window":[0.1,0.2,0.3]}`},
			{"/query/window", `{"window":[0,0,1,1,0.5]}`},
			{"/query/window", `{"window":null}`},
			{"/query/window", `{}`},
			{"/query/window", `{"tech":"SLM"}`},
			{"/query/point", `{}`},
			{"/query/point", `{"point":[0.5]}`},
			{"/query/point", `{"point":[0.5,0.5,0.5]}`},
			{"/query/knn", `{"point":[0.5,0.5,0.5],"k":3}`},
			{"/query/knn", `{"point":[0.5],"k":3}`},
			{"/query/knn", `{"k":3}`},
			{"/delete", `{}`},
			{"/delete", `{"id":null}`},
			{"/insert", `{"object":{` + obj + `}}`},
			{"/insert", `{"object":{"id":null,` + obj + `}}`},
			{"/insert", `{"key":[0,0,1,1]}`},
			{"/insert", `{"object":{"id":1,"kind":"polyline","vertices":[[0,0],[1,1,1]]}}`},
			{"/insert", `{"object":{"id":1,"kind":"polyline","vertices":[[0,0],[1],[1,1]]}}`},
			{"/update", `{"object":{"id":1,` + obj + `},"key":[0,0,1]}`},
			{"/update", `{"object":{"id":1,` + obj + `},"key":[0,0,1,1,1]}`},
			{"/update", `{"object":{"id":1,` + obj + `},"key":[]}`},
		} {
			for _, body := range []string{c.body, strings.ReplaceAll(c.body, ":", ": ")} {
				if rec := do(f, http.MethodPost, c.path, []byte(body)); rec.Code != http.StatusBadRequest {
					t.Errorf("%s %s: status %d (%s), want 400", c.path, body, rec.Code, rec.Body.String())
				}
			}
		}
	})
	if got := svc.calls.Load(); got != 0 {
		t.Fatalf("the service saw %d rejected requests", got)
	}
}

// TestJSONBodyClaimBounded: a JSON body's stated length buys no memory its
// bytes do not deliver. Requests that claim one byte under maxBodyBytes and
// send five cost a read step each, not the claim — the rule binary frames keep
// too (TestBinaryFrameClaimBounded).
func TestJSONBodyClaimBounded(t *testing.T) {
	h := NewFront(&fakeService{}, "test", 0, -1, false).Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, op := range frontOps() {
		for i := 0; i < 4; i++ {
			r := httptest.NewRequest(http.MethodPost, op.jsonPath, strings.NewReader(op.jsonBody[:5]))
			r.ContentLength = maxBodyBytes - 1
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			wantError(t, rec, http.StatusBadRequest)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("24 JSON bodies of 5 bytes claiming %d each allocated %d bytes, want < 4 MiB", maxBodyBytes-1, got)
	}
}

func TestFrontAdmission(t *testing.T) {
	eachCodec(t, func(t *testing.T, path string, body []byte) {
		svc := &fakeService{entered: make(chan struct{}), release: make(chan struct{})}
		f := NewFront(svc, "test", 1, -1, false)
		first := make(chan int)
		go func() { first <- do(f, http.MethodPost, path, body).Code }()
		<-svc.entered // the only permit is taken
		wantError(t, do(f, http.MethodPost, path, body), http.StatusTooManyRequests)
		close(svc.release)
		if code := <-first; code != http.StatusOK {
			t.Fatalf("admitted request answered %d", code)
		}
		var m Metrics
		f.Snapshot(&m)
		if ep := m.Endpoints[path]; ep.Rejected != 1 || ep.Count != 1 || m.Rejected != 1 {
			t.Fatalf("counters after one 429 and one 200: %+v, rejected_total %d", ep, m.Rejected)
		}

		// Introspection keeps answering at the limit; shutdown turns work away.
		release, err := f.close(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if rec := do(f, http.MethodGet, "/debug/slowlog", nil); rec.Code != http.StatusOK {
			t.Fatalf("/debug/slowlog with every permit held: %d", rec.Code)
		}
		wantError(t, do(f, http.MethodPost, path, body), http.StatusServiceUnavailable)
		wantError(t, do(f, http.MethodGet, "/readyz", nil), http.StatusServiceUnavailable)
		if rec := do(f, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
			t.Fatalf("/healthz during shutdown: %d", rec.Code)
		}
	})
}

func TestFrontErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		msg    string
	}{
		{&StatusError{Code: http.StatusTooManyRequests, Message: "shard 1 overloaded"}, http.StatusTooManyRequests, "shard 1 overloaded"},
		{fmt.Errorf("wrapped: %w", &StatusError{Code: http.StatusBadGateway, Message: "shard 2 is gone"}), http.StatusBadGateway, "shard 2 is gone"},
		{errors.New("the log refused the record"), http.StatusInternalServerError, "the log refused the record"},
		{context.Canceled, 499, "context canceled"},
		{fmt.Errorf("picked up too late: %w", context.DeadlineExceeded), http.StatusRequestTimeout, "picked up too late: context deadline exceeded"},
	} {
		f := NewFront(&fakeService{err: tc.err}, "test", 0, -1, false)
		eachCodec(t, func(t *testing.T, path string, body []byte) {
			if msg := wantError(t, do(f, http.MethodPost, path, body), tc.status); msg != tc.msg {
				t.Fatalf("message %q, want %q", msg, tc.msg)
			}
		})
	}
}

func TestFrontObservesEveryRequest(t *testing.T) {
	eachCodec(t, func(t *testing.T, path string, body []byte) {
		f := NewFront(&fakeService{}, "test", 0, 1e-6, false) // everything is slow
		for i := 0; i < 3; i++ {
			do(f, http.MethodPost, path, body)
		}
		do(f, http.MethodPost, path, body[:len(body)-3]) // a 400 is a request too

		var slow slowLogResponse
		if err := json.Unmarshal(do(f, http.MethodGet, "/debug/slowlog", nil).Body.Bytes(), &slow); err != nil {
			t.Fatal(err)
		}
		if slow.Total != 4 || len(slow.Entries) != 4 {
			t.Fatalf("slow log holds %d of %d entries, want 4 of 4", len(slow.Entries), slow.Total)
		}
		if e := slow.Entries[0]; e.Endpoint != path || e.Status != http.StatusBadRequest || e.Shard != "" {
			t.Fatalf("newest entry %+v, want the 400 on %s without attribution", e, path)
		}
		if e := slow.Entries[1]; e.Endpoint != path || e.Status != http.StatusOK ||
			e.QueueMS != 2 || e.ExecMS != 3 || e.Shard != "shard-7" {
			t.Fatalf("entry %+v lacks the service's queue/exec/shard attribution", e)
		}

		var m Metrics
		f.Snapshot(&m)
		if ep := m.Endpoints[path]; ep.Count != 4 || ep.Errors != 1 || ep.P50MS <= 0 || ep.MaxMS <= 0 {
			t.Fatalf("endpoint counters %+v, want 4 requests, 1 error and quantiles", ep)
		}
		if len(m.Endpoints) != 2 { // the operation and the slow-log read above
			t.Fatalf("endpoints that saw no request are reported: %v", m.Endpoints)
		}
		rec := httptest.NewRecorder()
		f.WriteProm(rec)
		for _, line := range []string{
			fmt.Sprintf("test_requests_total{endpoint=%q} 4", path),
			fmt.Sprintf("test_request_errors_total{endpoint=%q} 1", path),
			fmt.Sprintf("test_request_duration_seconds_count{endpoint=%q} 4", path),
			"test_slowlog_total 5",
		} {
			if !strings.Contains(rec.Body.String(), line+"\n") {
				t.Fatalf("exposition lacks %q:\n%s", line, rec.Body.String())
			}
		}
	})
}

func TestHTTPServerBoundsIdlePeers(t *testing.T) {
	hs := HTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("daemon http.Server without header/idle timeouts: %v / %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}

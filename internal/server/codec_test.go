package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// answerFrom reads fuzz bytes as the values of an answer: a flag byte (bit 0:
// nil IDs, bit 1: nil distances), eight bytes of candidates, then sixteen
// bytes per result — the ID and the bits of its distance.
func answerFrom(data []byte) (ids []object.ID, dists []float64, candidates int) {
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	if len(data) >= 8 {
		candidates, data = int(int64(binary.LittleEndian.Uint64(data))), data[8:]
	}
	if flags&1 == 0 {
		ids = []object.ID{}
	}
	if flags&2 == 0 {
		dists = []float64{}
	}
	for ; len(data) >= 16; data = data[16:] {
		if ids != nil {
			ids = append(ids, object.ID(binary.LittleEndian.Uint64(data)))
		}
		if dists != nil {
			dists = append(dists, math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
		}
	}
	return ids, dists, candidates
}

// answerBytes is the inverse of answerFrom for equally long lists.
func answerBytes(flags byte, candidates int, ids []uint64, dists []float64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{flags}, uint64(candidates))
	for i := range ids {
		b = binary.LittleEndian.AppendUint64(b, ids[i])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(dists[i]))
	}
	return b
}

func wireIDs(ids []object.ID) []uint64 {
	if ids == nil {
		return nil
	}
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// asKNN widens a window or point answer, so one comparison serves both.
func asKNN(q QueryResponse) KNNResponse {
	return KNNResponse{IDs: q.IDs, Candidates: q.Candidates, Trace: q.Trace}
}

// sameAnswer compares decoded answers bit for bit: nil apart from empty, -0
// apart from 0.
func sameAnswer(a, b KNNResponse) bool {
	if a.Candidates != b.Candidates || (a.IDs == nil) != (b.IDs == nil) || (a.Dists == nil) != (b.Dists == nil) ||
		len(a.IDs) != len(b.IDs) || len(a.Dists) != len(b.Dists) || !reflect.DeepEqual(a.Trace, b.Trace) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	for i := range a.Dists {
		if math.Float64bits(a.Dists[i]) != math.Float64bits(b.Dists[i]) {
			return false
		}
	}
	return true
}

// FuzzAnswerJSON holds the fast answer codec to encoding/json, its slow twin.
// The fuzz bytes are used twice. Read as values, the encoder must write what
// json.Encoder writes and the scanner must return the values. Read as a body,
// a scanner that accepts must have decoded what json.Unmarshal decodes, and
// ReadJSON must answer as json.Unmarshal does: one value, then only
// whitespace.
func FuzzAnswerJSON(f *testing.F) {
	// More seeds — exponent boundaries, non-finite distances, nil lists, the
	// bodies the scanner must decline — are in testdata/fuzz/FuzzAnswerJSON.
	f.Add(answerBytes(0, 1100, []uint64{0, 1, math.MaxUint64, 1 << 63, 72057594037928268},
		[]float64{0, math.Copysign(0, -1), 5e-324, 1e21, 1e-7}))
	f.Add(answerBytes(2, -4, []uint64{5}, []float64{9.999999e20}))
	f.Add([]byte("{\"ids\":[3,1152921504606846976],\"candidates\":5}\n"))
	f.Add([]byte("{\"ids\":[9],\"dists\":[0.25],\"candidates\":3}\n"))
	f.Add([]byte("{\"ids\":[1, 2],\"candidates\":2}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ids, dists, candidates := answerFrom(data)
		wire := append([]uint64{}, wireIDs(ids)...) // as the Front answers: [] for an empty answer, never null
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(QueryResponse{IDs: wire, Candidates: candidates}); err != nil {
			t.Fatal(err)
		}
		got, _ := appendAnswer(nil, ids, nil, false, candidates)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("query answer encodes as %q, encoding/json writes %q", got, want.Bytes())
		}
		var q QueryResponse
		if !scanBody(got, &q) || !sameAnswer(asKNN(q), KNNResponse{IDs: wire, Candidates: candidates}) {
			t.Fatalf("scanner read %q as %+v", got, q)
		}

		want.Reset()
		err := json.NewEncoder(&want).Encode(KNNResponse{IDs: wire, Dists: dists, Candidates: candidates})
		got, aerr := appendAnswer(nil, ids, dists, true, candidates)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("k-NN answer %v encodes: %v, encoding/json says %v", dists, aerr, err)
		}
		if aerr == nil {
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("k-NN answer encodes as %q, encoding/json writes %q", got, want.Bytes())
			}
			var k KNNResponse
			if !scanBody(got, &k) || !sameAnswer(k, KNNResponse{IDs: wire, Dists: dists, Candidates: candidates}) {
				t.Fatalf("scanner read %q as %+v", got, k)
			}
		}

		var sq, uq QueryResponse
		if scanBody(data, &sq) {
			if err := json.Unmarshal(data, &uq); err != nil || !sameAnswer(asKNN(sq), asKNN(uq)) {
				t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v (%v)", data, sq, uq, err)
			}
		}
		var sk, uk KNNResponse
		if scanBody(data, &sk) {
			if err := json.Unmarshal(data, &uk); err != nil || !sameAnswer(sk, uk) {
				t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v (%v)", data, sk, uk, err)
			}
		}
		var jk KNNResponse
		jerr := json.Unmarshal(data, &jk)
		for _, length := range []int64{-1, int64(len(data))} { // unstated, stated
			var dk KNNResponse
			derr := ReadJSON(bytes.NewReader(data), length, math.MaxInt64, &dk)
			if (derr == nil) != (jerr == nil) || derr == nil && !sameAnswer(dk, jk) {
				t.Fatalf("ReadJSON (length %d) read %q as %+v (%v), json.Unmarshal as %+v (%v)", length, data, dk, derr, jk, jerr)
			}
		}
	})
}

// refRequest decodes a request body as the Front must: json.Unmarshal into
// the request's own type, then the rule — window and key 4 numbers, point and
// vertex 2; window, point, k, id, object and its id present — read off a
// second json.Unmarshal into slices and pointers, which keep the length of a
// list and the absence of a member that the request types hide.
func refRequest(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	var ok bool
	var err error
	switch v.(type) {
	case *WindowRequest:
		var p struct{ Window []float64 }
		err = json.Unmarshal(data, &p)
		ok = len(p.Window) == 4
	case *PointRequest:
		var p struct{ Point []float64 }
		err = json.Unmarshal(data, &p)
		ok = len(p.Point) == 2
	case *KNNRequest:
		var p struct {
			Point []float64
			K     *int
		}
		err = json.Unmarshal(data, &p)
		ok = len(p.Point) == 2 && p.K != nil
	case *DeleteRequest:
		var p struct{ ID *uint64 }
		err = json.Unmarshal(data, &p)
		ok = p.ID != nil
	case *InsertRequest:
		var p struct {
			Object *struct {
				ID       *uint64
				Vertices [][]float64
			}
			Key []float64
		}
		err = json.Unmarshal(data, &p)
		ok = p.Object != nil && p.Object.ID != nil && (p.Key == nil || len(p.Key) == 4)
		for i := 0; ok && i < len(p.Object.Vertices); i++ {
			ok = len(p.Object.Vertices[i]) == 2
		}
	}
	if err == nil && !ok {
		err = errors.New("a list of the wrong length or a required member missing")
	}
	return err
}

// requestTypes are the request bodies of the six data-plane endpoints (insert
// and update share one).
func requestTypes() []func() any {
	return []func() any{
		func() any { return new(WindowRequest) },
		func() any { return new(PointRequest) },
		func() any { return new(KNNRequest) },
		func() any { return new(InsertRequest) },
		func() any { return new(DeleteRequest) },
	}
}

// sameJSON compares decoded values by what json.Marshal makes of them, which
// tells -0 from 0 and a nil list from an empty one.
func sameJSON(a, b any) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// techNames are the tech names requestFrom draws from: the empty one, names
// the server knows, and names json.Marshal must escape.
var techNames = []string{"", "SLM", "complete", "psychic", "a<b", "q\"t", "été", "tab\t"}

// requestFrom reads fuzz bytes as the values of the six requests: a flag byte
// (bit 0: polygon, bit 1: a key, bit 2: a nonzero pad), then eight-byte
// words, zero once the bytes run out — each float is a word's bits.
func requestFrom(data []byte) (win [4]float64, tech string, k int, id object.ID, o *object.Object, key *[4]float64) {
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	word := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	float := func() float64 { return math.Float64frombits(word()) }
	for i := range win {
		win[i] = float()
	}
	tech, k, id = techNames[word()%uint64(len(techNames))], int(int64(word())), object.ID(word())
	pad := 0
	if flags&4 != 0 {
		pad = int(word() >> 33) // object.New refuses a negative pad
	}
	pts := make([]geom.Point, 3+word()%20)
	for i := range pts {
		pts[i] = geom.Pt(float(), float())
	}
	var g geom.Geometry = geom.NewPolyline(pts[1:])
	if flags&1 != 0 {
		g = geom.NewPolygon(pts)
	}
	if flags&2 != 0 {
		key = &[4]float64{float(), float(), float(), float()}
	}
	return win, tech, k, id, object.New(id, g, pad), key
}

// FuzzRequestJSON holds the request codec to encoding/json. The fuzz bytes are
// used twice. Read as the body of each request type, what ReadJSON decodes,
// length stated or not, must be what refRequest decodes, and a body the
// scanner accepts must be one refRequest accepts as the same values. Read as
// values (requestFrom), each appender must write json.Marshal's bytes or fail
// with its error — the window's leaves a tech name json.Marshal escapes to it
// — and the scanner must read them back; the mutation answer must be json.Encoder's and scan back, and a body
// the scanner takes for one must be one json.Unmarshal reads alike.
func FuzzRequestJSON(f *testing.F) {
	// More seeds — float forms, wrong lengths, missing members, escapes — are
	// in testdata/fuzz/FuzzRequestJSON.
	f.Add([]byte(`{"window":[0.1,0.2,0.3,0.4],"tech":"SLM"}`))
	f.Add([]byte(`{"object":{"id":7,"kind":"polygon","vertices":[[0,0],[1,0],[1,1]],"pad":40},"key":[0,0,1,1]}`))
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range requestTypes() {
			want := fresh()
			werr := refRequest(data, want)
			for _, length := range []int64{-1, int64(len(data))} {
				got := fresh()
				gerr := ReadJSON(bytes.NewReader(data), length, maxBodyBytes, got)
				if (gerr == nil) != (werr == nil) || gerr == nil && !sameJSON(got, want) {
					t.Fatalf("ReadJSON (length %d) read %q as %+v (%v), the reference as %+v (%v)", length, data, got, gerr, want, werr)
				}
			}
			if got := fresh(); scanBody(data, got) && (werr != nil || !sameJSON(got, want)) {
				t.Fatalf("scanner read %q as %+v, the reference as %+v (%v)", data, got, want, werr)
			}
		}

		win, tech, k, id, o, key := requestFrom(data)
		wireObj, err := FromObject(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			req     any
			appends func([]byte) ([]byte, error)
			escapes bool // json.Marshal spells what the appender does not
		}{
			{WindowRequest{Window: win, Tech: tech}, func(b []byte) ([]byte, error) { return appendWindowReq(b, win, tech) }, !plain(tech)},
			{PointRequest{Point: [2]float64{win[0], win[1]}}, func(b []byte) ([]byte, error) {
				return appendPointReq(b, [2]float64{win[0], win[1]}, false, 0)
			}, false},
			{KNNRequest{Point: [2]float64{win[2], win[3]}, K: k}, func(b []byte) ([]byte, error) {
				return appendPointReq(b, [2]float64{win[2], win[3]}, true, k)
			}, false},
			{InsertRequest{Object: wireObj, Key: key}, func(b []byte) ([]byte, error) { return appendObjectReq(b, o, key) }, false},
			{DeleteRequest{ID: uint64(id)}, func(b []byte) ([]byte, error) { return appendDeleteReq(b, id) }, false},
		} {
			want, err := json.Marshal(c.req)
			got, aerr := c.appends(nil)
			if c.escapes != (aerr == errEscape) || !c.escapes && fmt.Sprint(aerr) != fmt.Sprint(err) {
				t.Fatalf("%T %+v appends: %v; json.Marshal says %v", c.req, c.req, aerr, err)
			}
			if aerr != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%T appends as %q, json.Marshal writes %q", c.req, got, want)
			}
			back := reflect.New(reflect.TypeOf(c.req)).Interface()
			if !scanBody(got, back) || !sameJSON(back, c.req) {
				t.Fatalf("scanner read %q back as %+v", got, back)
			}
		}

		for _, existed := range []bool{false, true} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(MutateResponse{Existed: existed}); err != nil {
				t.Fatal(err)
			}
			var back MutateResponse
			if got := appendMutate(nil, existed); !bytes.Equal(got, want.Bytes()) || !scanBody(got, &back) || back.Existed != existed {
				t.Fatalf("mutation answer %v appends as %q and scans back as %v; json.Encoder writes %q", existed, got, back.Existed, want.Bytes())
			}
		}
		var sm, um MutateResponse
		if scanBody(data, &sm) {
			if err := json.Unmarshal(data, &um); err != nil || sm != um {
				t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v (%v)", data, sm, um, err)
			}
		}
	})
}

// bigAnswer is the size of answer a 1 % window of the benchmark's data set
// draws.
func bigAnswer() []object.ID {
	ids := make([]object.ID, 1100)
	for i := range ids {
		ids[i] = object.ID(1<<56 | uint64(i)*7919)
	}
	return ids
}

// TestAnswerBodyReads drives ReadJSON over readers that deliver the body the
// ways a socket can: a byte at a time, with the error beside the last bytes,
// cut short, failing — each must end as a json.Decoder over the same reader,
// whether the body's length was stated or not.
func TestAnswerBodyReads(t *testing.T) {
	answer, _ := appendAnswer(nil, bigAnswer(), nil, false, 1234)
	body := string(answer)
	boom := errors.New("boom")
	for name, reader := range map[string]func(string) io.Reader{
		"whole":          func(s string) io.Reader { return strings.NewReader(s) },
		"one byte":       func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"error with eof": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
		"cut short":      func(s string) io.Reader { return strings.NewReader(s[:len(s)/2]) },
		"failing": func(s string) io.Reader {
			return io.MultiReader(strings.NewReader(s[:len(s)/2]), iotest.ErrReader(boom))
		},
	} {
		var want QueryResponse
		werr := json.NewDecoder(reader(body)).Decode(&want)
		for _, length := range []int64{-1, int64(len(body))} {
			var got QueryResponse
			gerr := ReadJSON(reader(body), length, math.MaxInt64, &got)
			if !errors.Is(gerr, werr) || !sameAnswer(asKNN(got), asKNN(want)) {
				t.Errorf("%s, length %d: ReadJSON answers %d IDs (%v), a json.Decoder %d (%v)",
					name, length, len(got.IDs), gerr, len(want.IDs), werr)
			}
		}
	}
}

// handlerTransport serves a client's requests by calling the handler, so a
// test measures the client and the Front without a socket in between.
type handlerTransport struct{ h http.Handler }

func (ht handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestRetryCostsNothingUntilItRetries: a client with a Retry configuration —
// every shard client of a router — pays for the seeded jitter source on the
// first retry, not on every call.
func TestRetryCostsNothingUntilItRetries(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	f := NewFront(&fakeService{}, "sdb", 0, -1, false)
	c := &Client{Base: "http://front", HTTP: &http.Client{Transport: handlerTransport{f.Handler()}}}
	point := func() {
		if _, err := c.Point(geom.Pt(0.5, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(200, point)
	c.Retry = &Retry{Seed: 42}
	if with := testing.AllocsPerRun(200, point); with != plain {
		t.Fatalf("a successful Point allocates %v objects with Retry set, %v without", with, plain)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation (and sync.Pool's random drops) makes allocation counts
// meaningless.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

var benchSink int

// BenchmarkAnswerCodec times the encode and the decode of a 1,100-ID answer,
// the fast codec beside encoding/json.
func BenchmarkAnswerCodec(b *testing.B) {
	ids := bigAnswer()
	body, _ := appendAnswer(nil, ids, nil, false, 1234)
	wire := wireIDs(ids)
	b.Run("encode/fast", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendAnswer(buf[:0], ids, nil, false, 1234)
		}
		benchSink += len(buf)
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			json.NewEncoder(&buf).Encode(QueryResponse{IDs: wire, Candidates: 1234})
		}
		benchSink += buf.Len()
	})
	for _, arm := range []struct {
		name   string
		decode func(io.Reader, any) error
	}{
		{"decode/fast", func(r io.Reader, v any) error { return ReadJSON(r, int64(len(body)), math.MaxInt64, v) }},
		{"decode/json", func(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var q QueryResponse
				if err := arm.decode(bytes.NewReader(body), &q); err != nil {
					b.Fatal(err)
				}
				benchSink += len(q.IDs)
			}
		})
	}
}

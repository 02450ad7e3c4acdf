package router_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// rawObject hand-assembles an object's storage serialization — the binary
// codec's wire form — with a vertex count the constructors would refuse.
func rawObject(typ byte, vertices int) []byte {
	b := make([]byte, 20+16*vertices)
	binary.LittleEndian.PutUint64(b, 424242)
	b[8] = typ // 1 polyline, 2 polygon
	binary.LittleEndian.PutUint32(b[12:], uint32(vertices))
	for i := 0; i < vertices; i++ {
		binary.LittleEndian.PutUint64(b[20+16*i:], math.Float64bits(0.4+float64(i)/100))
		binary.LittleEndian.PutUint64(b[28+16*i:], math.Float64bits(0.4))
	}
	return b
}

// TestInvalidRequestsAnswerAlike sends every kind of invalid request to a
// single server and to a router, in both codecs: each must be turned away
// with the same 400 before any store or shard sees it. The k above the binary
// field's range is the case the tiers used to disagree on: the JSON endpoints
// accepted it, and the router's binary shard clients truncated it to 1.
func TestInvalidRequestsAnswerAlike(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 7})
	tc := clusterFromDataset(t, ds, 2)
	pt, win := [2]float64{0.5, 0.5}, [4]float64{0, 0, 1, 1}
	mutate := func(kind byte, obj []byte) []byte { return append([]byte{kind, 0}, obj...) }
	// Keys that do not cover their object: short of its last vertex, beside
	// it, and not a rectangle at all.
	seg := object.New(424242, geom.NewPolyline([]geom.Point{{X: 0.4, Y: 0.4}, {X: 0.41, Y: 0.4}}), 0)
	keyed := func(kind byte, key [4]float64) []byte { return binproto.AppendMutateReq(nil, kind, seg, &key) }
	// A polyline whose last vertex has a non-finite x, keyed by its own
	// bounds — which skip a NaN and so look like a rectangle.
	nonFinite := func(kind byte, x float64) []byte {
		obj := rawObject(1, 3)
		binary.LittleEndian.PutUint64(obj[20+16*2:], math.Float64bits(x))
		return mutate(kind, obj)
	}

	cases := []struct {
		name              string
		jsonPath, binPath string
		json              string // "" when JSON cannot spell the request
		bin               []byte // nil when the binary codec cannot
	}{
		{"k = 0", "/query/knn", "/bin/knn", `{"point":[0.5,0.5],"k":0}`, binproto.AppendKNNReq(nil, pt, 0)},
		{"k < 0", "/query/knn", "/bin/knn", `{"point":[0.5,0.5],"k":-3}`, nil},
		{"k = 2^31", "/query/knn", "/bin/knn", `{"point":[0.5,0.5],"k":2147483648}`, binproto.AppendKNNReq(nil, pt, 1<<31)},
		{"k = 2^32+1", "/query/knn", "/bin/knn", `{"point":[0.5,0.5],"k":4294967297}`, nil},
		{"unknown technique", "/query/window", "/bin/window", `{"window":[0,0,1,1],"tech":"psychic"}`,
			binproto.AppendWindowReq(nil, win, store.Technique(9))},
		{"1-vertex polyline", "/insert", "/bin/insert",
			`{"object":{"id":424242,"kind":"polyline","vertices":[[0.4,0.4]]}}`, mutate(binproto.KindInsert, rawObject(1, 1))},
		{"2-vertex polygon", "/update", "/bin/update",
			`{"object":{"id":424242,"kind":"polygon","vertices":[[0.4,0.4],[0.41,0.4]]}}`, mutate(binproto.KindUpdate, rawObject(2, 2))},
		{"unknown geometry", "/insert", "/bin/insert",
			`{"object":{"id":424242,"kind":"circle","vertices":[[0.4,0.4],[0.41,0.4]]}}`, mutate(binproto.KindInsert, rawObject(7, 2))},
		{"negative pad", "/insert", "/bin/insert",
			`{"object":{"id":424242,"kind":"polyline","vertices":[[0.4,0.4],[0.41,0.4]],"pad":-1}}`, nil},
		{"key short of the object", "/insert", "/bin/insert",
			`{"object":{"id":424242,"kind":"polyline","vertices":[[0.4,0.4],[0.41,0.4]]},"key":[0.4,0.4,0.405,0.4]}`,
			keyed(binproto.KindInsert, [4]float64{0.4, 0.4, 0.405, 0.4})},
		{"key beside the object", "/update", "/bin/update",
			`{"object":{"id":424242,"kind":"polyline","vertices":[[0.4,0.4],[0.41,0.4]]},"key":[0.6,0.6,0.7,0.7]}`,
			keyed(binproto.KindUpdate, [4]float64{0.6, 0.6, 0.7, 0.7})},
		{"NaN key", "/insert", "/bin/insert", "", keyed(binproto.KindInsert, [4]float64{math.NaN(), 0.4, 0.41, 0.4})},
		// JSON cannot carry a non-finite number; the binary codec can.
		{"NaN vertex insert", "/insert", "/bin/insert", "", nonFinite(binproto.KindInsert, math.NaN())},
		{"NaN vertex update", "/update", "/bin/update", "", nonFinite(binproto.KindUpdate, math.NaN())},
		{"+Inf vertex insert", "/insert", "/bin/insert", "", nonFinite(binproto.KindInsert, math.Inf(1))},
		{"+Inf vertex update", "/update", "/bin/update", "", nonFinite(binproto.KindUpdate, math.Inf(1))},
	}
	tiers := []struct {
		name string
		base string
	}{{"server", tc.shards[0].Base}, {"router", tc.client.Base}}

	for _, c := range cases {
		for _, tier := range tiers {
			send := func(codec, path string, body []byte) {
				resp, err := http.Post(tier.base+path, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var er server.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
					t.Fatalf("%s: %s %s: status %d without an ErrorResponse body (%v)", c.name, tier.name, codec, resp.StatusCode, err)
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s: %s %s: status %d (%s), want 400", c.name, tier.name, codec, resp.StatusCode, er.Error)
				}
			}
			if c.json != "" {
				send("json", c.jsonPath, []byte(c.json))
			}
			if c.bin != nil {
				send("binary", c.binPath, framing.AppendRecord(nil, c.bin))
			}
		}
	}

	// Nothing above reached a store: the object none of the inserts created
	// is absent — the query that says so is the next request, answered — and
	// no shard counted a data-plane request.
	if r, err := tc.client.Point(geom.Pt(0.4, 0.4)); err != nil {
		t.Fatal(err)
	} else {
		for _, id := range r.IDs {
			if id == 424242 {
				t.Fatal("an invalid insert was applied")
			}
		}
	}
	for i, sc := range tc.shards {
		m, err := sc.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for path, ep := range m.Endpoints {
			if i == 1 && (path == "/bin/knn" || path == "/bin/window" || path == "/bin/insert" || path == "/bin/update") {
				t.Fatalf("shard 1 saw %d requests on %s: the router passed an invalid request on", ep.Count, path)
			}
		}
	}
}

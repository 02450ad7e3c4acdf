package binproto

import (
	"math"
	"reflect"
	"testing"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

func TestWindowRoundTrip(t *testing.T) {
	win := [4]float64{0.1, 0.2, 0.3, 0.4}
	for tech := store.TechDefault; tech <= store.TechPageByPage; tech++ {
		p := AppendWindowReq(nil, win, tech)
		gotWin, gotTech, err := DecodeWindowReq(p)
		if err != nil {
			t.Fatalf("tech %v: %v", tech, err)
		}
		if gotWin != win || gotTech != tech {
			t.Fatalf("round trip: got %v/%v, want %v/%v", gotWin, gotTech, win, tech)
		}
	}
}

func TestWindowRejects(t *testing.T) {
	win := [4]float64{0, 0, 1, 1}
	for _, tech := range []store.Technique{9, store.TechDefault - 1} {
		if _, _, err := DecodeWindowReq(AppendWindowReq(nil, win, tech)); err == nil {
			t.Fatalf("unknown technique %d accepted", tech)
		}
	}
	p := AppendWindowReq(nil, win, store.TechSLM)
	if _, _, err := DecodeWindowReq(p[:len(p)-1]); err == nil {
		t.Fatal("truncated window accepted")
	}
	if _, _, err := DecodeWindowReq(append(p, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := DecodeWindowReq(AppendPointReq(nil, [2]float64{0, 0})); err == nil {
		t.Fatal("wrong message kind accepted")
	}
}

func TestPointKNNRoundTrip(t *testing.T) {
	pt := [2]float64{0.25, -1.5}
	gotPt, err := DecodePointReq(AppendPointReq(nil, pt))
	if err != nil || gotPt != pt {
		t.Fatalf("point: got %v, %v", gotPt, err)
	}
	gotPt, k, err := DecodeKNNReq(AppendKNNReq(nil, pt, 17))
	if err != nil || gotPt != pt || k != 17 {
		t.Fatalf("knn: got %v/%d, %v", gotPt, k, err)
	}
	if _, _, err := DecodeKNNReq(AppendKNNReq(nil, pt, 0)); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMutateRoundTrip(t *testing.T) {
	o := object.New(42, geom.NewPolyline([]geom.Point{{X: 0.1, Y: 0.2}, {X: 0.3, Y: 0.4}}), 7)
	key := &[4]float64{0, 0, 1, 1}
	for _, kind := range []byte{KindInsert, KindUpdate} {
		for _, k := range []*[4]float64{nil, key} {
			p := AppendMutateReq(nil, kind, o, k)
			gotO, gotK, err := DecodeMutateReq(p, kind)
			if err != nil {
				t.Fatalf("kind 0x%02x: %v", kind, err)
			}
			if gotO.ID != o.ID || gotO.Pad != o.Pad || !reflect.DeepEqual(gotK, k) {
				t.Fatalf("kind 0x%02x: object/key mismatch", kind)
			}
		}
	}
	// Insert payload presented to the update decoder must fail on kind.
	if _, _, err := DecodeMutateReq(AppendMutateReq(nil, KindInsert, o, nil), KindUpdate); err == nil {
		t.Fatal("kind cross-decode accepted")
	}
	// A corrupt object body errors instead of panicking.
	p := AppendMutateReq(nil, KindInsert, o, nil)
	if _, _, err := DecodeMutateReq(p[:len(p)-3], KindInsert); err == nil {
		t.Fatal("truncated object accepted")
	}
}

func TestDeleteRoundTrip(t *testing.T) {
	id, err := DecodeDeleteReq(AppendDeleteReq(nil, math.MaxUint64))
	if err != nil || id != math.MaxUint64 {
		t.Fatalf("got %d, %v", id, err)
	}
}

func TestQueryRespRoundTrip(t *testing.T) {
	ids := []object.ID{3, 1, math.MaxUint64}
	p := AppendQueryResp(nil, ids, 9)
	scratch := make([]uint64, 0, 8)
	got, cand, err := DecodeQueryResp(p, scratch)
	if err != nil || cand != 9 {
		t.Fatalf("cand %d, %v", cand, err)
	}
	want := []uint64{3, 1, math.MaxUint64}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ids %v, want %v", got, want)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("decode did not reuse the caller's slice")
	}
	// An id count promising more than the payload holds must not allocate.
	if _, _, err := DecodeQueryResp(AppendQueryResp(nil, nil, 0)[:8], nil); err == nil {
		t.Fatal("truncated count accepted")
	}
}

func TestKNNRespRoundTrip(t *testing.T) {
	ids := []object.ID{5, 6}
	dists := []float64{0.5, 1.25}
	p := AppendKNNResp(nil, ids, dists, 4)
	gotIDs, gotDists, cand, err := DecodeKNNResp(p, nil, nil)
	if err != nil || cand != 4 {
		t.Fatalf("cand %d, %v", cand, err)
	}
	if !reflect.DeepEqual(gotIDs, []uint64{5, 6}) || !reflect.DeepEqual(gotDists, dists) {
		t.Fatalf("got %v/%v", gotIDs, gotDists)
	}
}

func TestMutateRespRoundTrip(t *testing.T) {
	for _, existed := range []bool{false, true} {
		got, err := DecodeMutateResp(AppendMutateResp(nil, existed))
		if err != nil || got != existed {
			t.Fatalf("existed %v: got %v, %v", existed, got, err)
		}
	}
	if _, err := DecodeMutateResp([]byte{KindMutateResp, 2}); err == nil {
		t.Fatal("existed flag 2 accepted")
	}
}

func TestPooledBuf(t *testing.T) {
	b := GetBuf()
	*b = AppendDeleteReq(*b, 1)
	if len(*b) != 9 {
		t.Fatalf("len %d", len(*b))
	}
	PutBuf(b)
	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	PutBuf(b2)

	// One huge answer does not stay pinned in the pool: none of the next
	// few buffers handed out is it.
	big := make([]byte, 1<<20)
	PutBuf(&big)
	var held []*[]byte
	for range 3 {
		b := GetBuf()
		if cap(*b) > 64<<10 {
			t.Fatalf("the pool handed out a %d-byte buffer, want at most 64 KiB", cap(*b))
		}
		held = append(held, b)
	}
	for _, b := range held {
		PutBuf(b)
	}
}

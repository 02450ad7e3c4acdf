package binproto

import (
	"testing"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
)

// FuzzDecodeRequests drives every request decoder with arbitrary bytes: no
// input may panic, and an accepted input must re-encode to the same bytes
// (the decoders are exact-length, so acceptance implies canonical form).
func FuzzDecodeRequests(f *testing.F) {
	f.Add(AppendWindowReq(nil, [4]float64{0, 0, 1, 1}, store.TechSLM))
	f.Add(AppendWindowReq(nil, [4]float64{0, 0, 1, 1}, store.TechDefault))
	f.Add(AppendPointReq(nil, [2]float64{0.5, 0.5}))
	f.Add(AppendKNNReq(nil, [2]float64{0.5, 0.5}, 10))
	obj := object.New(7, geom.NewPolyline([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}), 3)
	f.Add(AppendMutateReq(nil, KindInsert, obj, &[4]float64{0, 0, 1, 1}))
	f.Add(AppendMutateReq(nil, KindUpdate, obj, nil))
	f.Add(AppendDeleteReq(nil, 99))
	f.Add(TraceReq(AppendWindowReq(nil, [4]float64{0, 0, 1, 1}, store.TechComplete), 77))
	f.Add(TraceReq(AppendPointReq(nil, [2]float64{0.5, 0.5}), 0))
	f.Add(TraceReq(AppendKNNReq(nil, [2]float64{0.5, 0.5}, 10), 1<<40))
	f.Add([]byte{})
	f.Add([]byte{KindWindow})
	f.Add([]byte{KindWindow | KindTraceBit})

	f.Fuzz(func(t *testing.T, orig []byte) {
		// The receiver strips the trace envelope first (in place, hence the
		// copy); wrapping what is left must give the input back, and the
		// message decoders below see what a receiver would hand them.
		p, tid, traced, err := UntraceReq(append([]byte(nil), orig...))
		if err != nil {
			return
		}
		if traced {
			if got := TraceReq(append([]byte(nil), p...), tid); string(got) != string(orig) {
				t.Fatalf("trace envelope re-wrap mismatch: %x vs %x", got, orig)
			}
		}
		if win, tech, err := DecodeWindowReq(p); err == nil {
			if got := AppendWindowReq(nil, win, tech); string(got) != string(p) {
				t.Fatalf("window re-encode mismatch: %x vs %x", got, p)
			}
		}
		if pt, err := DecodePointReq(p); err == nil {
			if got := AppendPointReq(nil, pt); string(got) != string(p) {
				t.Fatalf("point re-encode mismatch: %x vs %x", got, p)
			}
		}
		if pt, k, err := DecodeKNNReq(p); err == nil {
			if got := AppendKNNReq(nil, pt, k); string(got) != string(p) {
				t.Fatalf("knn re-encode mismatch: %x vs %x", got, p)
			}
		}
		for _, kind := range []byte{KindInsert, KindUpdate} {
			if o, key, err := DecodeMutateReq(p, kind); err == nil {
				if got := AppendMutateReq(nil, kind, o, key); string(got) != string(p) {
					t.Fatalf("mutate re-encode mismatch: %x vs %x", got, p)
				}
			}
		}
		if id, err := DecodeDeleteReq(p); err == nil {
			if got := AppendDeleteReq(nil, id); string(got) != string(p) {
				t.Fatalf("delete re-encode mismatch: %x vs %x", got, p)
			}
		}
	})
}

// FuzzDecodeResponses drives the response decoders: no panic, and accepted
// inputs round-trip. NaN distances are excluded from the re-encode check
// (NaN != NaN, but the bit pattern still matches — compare bytes only).
func FuzzDecodeResponses(f *testing.F) {
	f.Add(AppendQueryResp(nil, []object.ID{1, 2, 3}, 5))
	f.Add(AppendKNNResp(nil, []object.ID{4}, []float64{0.25}, 2))
	f.Add(AppendMutateResp(nil, true))
	spans := []obs.Span{
		{ID: 1, Stage: "scatter", DurMS: 2, Count: 2},
		{ID: 2, Parent: 1, Stage: "execute", StartMS: 0.5, DurMS: 1,
			IO: &obs.IO{BufferHits: 3, ModelMS: 0.25}},
	}
	f.Add(TraceResp(AppendQueryResp(nil, []object.ID{1, 2}, 4), 99, 3.5, spans))
	f.Add(TraceResp(AppendKNNResp(nil, []object.ID{4}, []float64{0.25}, 2), 7, 1.5, spans))
	f.Add(TraceResp(AppendQueryResp(nil, nil, 0), 0, 0, nil))
	f.Add(TraceResp(AppendMutateResp(nil, true), 5, 0.5, spans))
	f.Add([]byte{KindQueryResp, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, orig []byte) {
		p, traced, tid, total, spans, err := UntraceResp(append([]byte(nil), orig...))
		if err != nil {
			return
		}
		if traced {
			if got := TraceResp(append([]byte(nil), p...), tid, total, spans); string(got) != string(orig) {
				t.Fatalf("trace envelope re-wrap mismatch: %x vs %x", got, orig)
			}
		}
		if ids, cand, err := DecodeQueryResp(p, nil); err == nil {
			oids := make([]object.ID, len(ids))
			for i, id := range ids {
				oids[i] = object.ID(id)
			}
			if got := AppendQueryResp(nil, oids, cand); string(got) != string(p) {
				t.Fatalf("query resp re-encode mismatch: %x vs %x", got, p)
			}
		}
		if ids, dists, cand, err := DecodeKNNResp(p, nil, nil); err == nil {
			oids := make([]object.ID, len(ids))
			for i, id := range ids {
				oids[i] = object.ID(id)
			}
			if got := AppendKNNResp(nil, oids, dists, cand); string(got) != string(p) {
				t.Fatalf("knn resp re-encode mismatch: %x vs %x", got, p)
			}
		}
		if existed, err := DecodeMutateResp(p); err == nil {
			if got := AppendMutateResp(nil, existed); string(got) != string(p) {
				t.Fatalf("mutate resp re-encode mismatch: %x vs %x", got, p)
			}
		}
	})
}

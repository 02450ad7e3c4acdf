package server_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
)

// compareClients runs the same queries through two clients of one server and
// requires field-for-field identical answers — the binary encoding must be
// invisible.
func compareClients(t *testing.T, phase string, jc, bc *server.Client,
	ws []geom.Rect, pts []geom.Point, ks []int) {
	t.Helper()
	for wi, w := range ws {
		for _, tech := range []string{"", "complete", "threshold", "slm", "vector", "page"} {
			jr, err := jc.Window(w, tech)
			if err != nil {
				t.Fatalf("%s: json window %d tech %q: %v", phase, wi, tech, err)
			}
			br, err := bc.Window(w, tech)
			if err != nil {
				t.Fatalf("%s: bin window %d tech %q: %v", phase, wi, tech, err)
			}
			if !reflect.DeepEqual(jr.IDs, br.IDs) || jr.Candidates != br.Candidates {
				t.Fatalf("%s: window %d tech %q: json %d ids/%d cand, bin %d ids/%d cand",
					phase, wi, tech, len(jr.IDs), jr.Candidates, len(br.IDs), br.Candidates)
			}
		}
	}
	for pi, pt := range pts {
		jr, err := jc.Point(pt)
		if err != nil {
			t.Fatalf("%s: json point %d: %v", phase, pi, err)
		}
		br, err := bc.Point(pt)
		if err != nil {
			t.Fatalf("%s: bin point %d: %v", phase, pi, err)
		}
		if !reflect.DeepEqual(jr.IDs, br.IDs) || jr.Candidates != br.Candidates {
			t.Fatalf("%s: point %d: answers differ between encodings", phase, pi)
		}
	}
	for _, k := range ks {
		for pi, pt := range pts {
			jr, err := jc.KNN(pt, k)
			if err != nil {
				t.Fatalf("%s: json %d-NN %d: %v", phase, k, pi, err)
			}
			br, err := bc.KNN(pt, k)
			if err != nil {
				t.Fatalf("%s: bin %d-NN %d: %v", phase, k, pi, err)
			}
			if !reflect.DeepEqual(jr.IDs, br.IDs) || !reflect.DeepEqual(jr.Dists, br.Dists) ||
				jr.Candidates != br.Candidates {
				t.Fatalf("%s: %d-NN %d: answers differ between encodings", phase, k, pi)
			}
		}
	}
}

// TestBinaryDifferential is the binary protocol's differential suite: for
// every organization kind, every typed call over /bin/* must match both the
// JSON endpoints (same server, two encodings) and an in-process reference —
// on the fresh store, and again after a deterministic churn stream applied
// through the binary mutation endpoints. Window centers mostly miss Map 1's
// polylines, so each phase adds point queries on vertices of the objects
// stored at the time; at least half of the point comparisons must have a
// non-empty answer, or agreeing answers would prove little.
func TestBinaryDifferential(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 42,
	})
	ws := append(ds.Windows(0.001, 4, 5), ds.Windows(0.01, 3, 6)...)
	pts := ds.Points(6, 7)
	ks := []int{1, 10}
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 300, HotspotFrac: 0.5, Seed: 91})
	freshPts := append(slices.Clip(pts), ds.VertexPoints(12, 8)...)
	churnedPts := append(slices.Clip(pts), storedAfter(ds, ops).VertexPoints(12, 8)...)

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			served := buildOrg(t, kind, ds)
			ref := buildOrg(t, kind, ds)
			_, jc := startServer(t, served, server.Config{})
			bc := *jc
			bc.Binary = true

			nonEmpty := checkAgainstInProcess(t, "fresh-bin", &bc, ref, ws, freshPts, ks)
			compareClients(t, "fresh", jc, &bc, ws, freshPts, ks)

			// Churn through the binary mutation endpoints, mirrored on the
			// in-process reference — existed answers must agree op by op.
			for oi, op := range ops {
				switch op.Kind {
				case datagen.OpInsert:
					if err := bc.Insert(op.Obj, op.Key); err != nil {
						t.Fatalf("op %d: binary insert: %v", oi, err)
					}
					ref.Insert(op.Obj, op.Key)
				case datagen.OpDelete:
					existed, err := bc.Delete(op.ID)
					if err != nil {
						t.Fatalf("op %d: binary delete: %v", oi, err)
					}
					if want := ref.Delete(op.ID); existed != want {
						t.Fatalf("op %d: binary delete %d existed=%v, in-process %v", oi, op.ID, existed, want)
					}
				case datagen.OpUpdate:
					existed, err := bc.Update(op.Obj, op.Key)
					if err != nil {
						t.Fatalf("op %d: binary update: %v", oi, err)
					}
					if want := ref.Update(op.Obj, op.Key); existed != want {
						t.Fatalf("op %d: binary update %d existed=%v, in-process %v", oi, op.Obj.ID, existed, want)
					}
				}
			}
			ref.Flush()
			if err := jc.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}

			nonEmpty += checkAgainstInProcess(t, "churned-bin", &bc, ref, ws, churnedPts, ks)
			compareClients(t, "churned", jc, &bc, ws, churnedPts, ks)

			compared := len(freshPts) + len(churnedPts)
			t.Logf("point: %d of %d comparisons non-empty", nonEmpty, compared)
			if 2*nonEmpty < compared {
				t.Errorf("point: only %d of %d comparisons had a non-empty answer", nonEmpty, compared)
			}
		})
	}
}

// storedAfter returns the objects stored once ops has run on a store holding
// ds, in ascending ID order.
func storedAfter(ds *datagen.Dataset, ops []datagen.Op) *datagen.Dataset {
	live := make(map[object.ID]*object.Object, len(ds.Objects))
	for _, o := range ds.Objects {
		live[o.ID] = o
	}
	for _, op := range ops {
		switch op.Kind {
		case datagen.OpInsert, datagen.OpUpdate:
			live[op.Obj.ID] = op.Obj
		case datagen.OpDelete:
			delete(live, op.ID)
		}
	}
	out := &datagen.Dataset{Objects: make([]*object.Object, 0, len(live))}
	for _, o := range live {
		out.Objects = append(out.Objects, o)
	}
	slices.SortFunc(out.Objects, func(a, b *object.Object) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// TestBinaryErrors checks the binary endpoints' failure discipline: malformed
// frames and payloads answer a descriptive 4xx, never a 500 or a broken
// frame, and the binary client surfaces them as StatusError.
func TestBinaryErrors(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 64, Seed: 2,
	})
	served := buildOrg(t, "cluster", ds)
	_, jc := startServer(t, served, server.Config{})
	bc := *jc
	bc.Binary = true

	// k = 0 is rejected client-side by the codec's decoder on the server.
	if _, err := bc.KNN(geom.Pt(0.5, 0.5), 0); err == nil {
		t.Fatal("0-NN over binary did not fail")
	} else if se, ok := err.(*server.StatusError); !ok || se.Code != 400 {
		t.Fatalf("0-NN over binary: %v, want a 400 StatusError", err)
	}

	// A JSON body on a binary endpoint is a framing error, not a panic, and
	// it is answered like every other error: a 400 with the JSON error body.
	raw, err := jc.Raw("/stats")
	if err != nil || len(raw) == 0 {
		t.Fatalf("stats: %v", err)
	}
	err = jc.Post("/bin/window", struct{ X int }{1}, nil)
	if se, ok := err.(*server.StatusError); !ok || se.Code != 400 || se.Message == "" {
		t.Fatalf("JSON body on /bin/window: %v, want a 400 StatusError with the server's message", err)
	}

	// An unknown technique byte is rejected with the codec's message.
	if _, err := bc.Window(geom.R(0, 0, 1, 1), "nonsense"); err == nil {
		t.Fatal("unknown technique over binary did not fail")
	}
}

// TestBinaryFrameClaimBounded: a /bin/* body whose frame header claims the
// largest message and then delivers 10 bytes answers 400 without the claim
// being allocated — 20 of them stay under 4 MiB together, not 20 × 8 MiB —
// on a Server's Front and on a Router's.
func TestBinaryFrameClaimBounded(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 3})
	srv, _ := startServer(t, buildOrg(t, "cluster", ds), server.Config{})
	pmap := shard.FromKeys(ds.MBRs, 2)
	rt, err := router.New(pmap, []*server.Client{
		server.NewClient("http://127.0.0.1:1", 1), server.NewClient("http://127.0.0.1:2", 1),
	}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := binary.LittleEndian.AppendUint32(nil, binproto.MaxMessage)
	body = append(body, make([]byte, 4+10)...) // checksum, then 10 of the bytes claimed
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"server", srv.Handler()}, {"router", rt.Handler()}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bin/window", bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d (%s), want 400", tier.name, rec.Code, rec.Body.String())
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Errorf("%s: 20 truncated frames claiming %d bytes each allocated %d bytes, want < 4 MiB",
				tier.name, binproto.MaxMessage, got)
		}
	}
}

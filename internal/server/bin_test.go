package server_test

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
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
// through the binary mutation endpoints.
func TestBinaryDifferential(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 42,
	})
	ws := append(ds.Windows(0.001, 4, 5), ds.Windows(0.01, 3, 6)...)
	pts := ds.Points(6, 7)
	ks := []int{1, 10}
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 300, HotspotFrac: 0.5, Seed: 91})

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			served := buildOrg(t, kind, ds)
			ref := buildOrg(t, kind, ds)
			_, jc := startServer(t, served, server.Config{})
			bc := *jc
			bc.Binary = true

			checkAgainstInProcess(t, "fresh-bin", &bc, ref, ws, pts, ks)
			compareClients(t, "fresh", jc, &bc, ws, pts, ks)

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

			checkAgainstInProcess(t, "churned-bin", &bc, ref, ws, pts, ks)
			compareClients(t, "churned", jc, &bc, ws, pts, ks)
		})
	}
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

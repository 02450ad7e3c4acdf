package router_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// compareRouted runs the same queries through two clients of one router and
// requires field-for-field identical merged answers.
func compareRouted(t *testing.T, phase string, jc, bc *server.Client,
	ws []geom.Rect, pts []geom.Point, ks []int) {
	t.Helper()
	for wi, w := range ws {
		jr, err := jc.Window(w, "complete")
		if err != nil {
			t.Fatalf("%s: json window %d: %v", phase, wi, err)
		}
		br, err := bc.Window(w, "complete")
		if err != nil {
			t.Fatalf("%s: bin window %d: %v", phase, wi, err)
		}
		if !reflect.DeepEqual(jr.IDs, br.IDs) || jr.Candidates != br.Candidates {
			t.Fatalf("%s: window %d: encodings disagree through the router", phase, wi)
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
			t.Fatalf("%s: point %d: encodings disagree through the router", phase, pi)
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
				t.Fatalf("%s: %d-NN %d: encodings disagree through the router", phase, k, pi)
			}
		}
	}
}

// TestRouterBinaryDifferential drives the binary protocol through the whole
// tier: client → router over /bin/*, router → shards over /bin/* as every
// cluster of these tests and sdbrouter run it, so the compact encoding runs
// end to end. The answers must match the JSON encoding at the public edge and
// a single reference store, fresh and after a churn stream applied through
// the binary mutation endpoints.
func TestRouterBinaryDifferential(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 7})
	stream := ds.Stream(datagen.StreamSpec{N: 36, WindowArea: 0.004, K: 9, Seed: 27})
	ws := append(ds.Windows(0.001, 4, 5), ds.Windows(0.01, 3, 6)...)
	pts := ds.Points(5, 7)
	ks := []int{1, 10}
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 140, HotspotFrac: 0.5, Seed: 33})

	const name = "binary-shards"
	t.Run(name, func(t *testing.T) {
		tc := clusterFromDataset(t, ds, 4)
		ref := buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs)
		bc := *tc.client
		bc.Binary = true
		btc := *tc
		btc.client = &bc

		agreeStream(t, name+"/fresh-bin", &btc, ref, stream, new(coverage))
		compareRouted(t, name+"/fresh", tc.client, &bc, ws, pts, ks)

		// Churn through the router's binary mutation endpoints, mirrored
		// on the reference — existed verdicts must agree op by op.
		for i, op := range ops {
			switch op.Kind {
			case datagen.OpInsert:
				ref.Insert(op.Obj, op.Key)
				if err := bc.Insert(op.Obj, op.Key); err != nil {
					t.Fatalf("op %d: binary insert: %v", i, err)
				}
			case datagen.OpDelete:
				want := ref.Delete(op.ID)
				got, err := bc.Delete(op.ID)
				if err != nil {
					t.Fatalf("op %d: binary delete: %v", i, err)
				}
				if got != want {
					t.Fatalf("op %d: binary delete %d: router existed=%v, reference %v", i, op.ID, got, want)
				}
			case datagen.OpUpdate:
				want := ref.Update(op.Obj, op.Key)
				got, err := bc.Update(op.Obj, op.Key)
				if err != nil {
					t.Fatalf("op %d: binary update: %v", i, err)
				}
				if got != want {
					t.Fatalf("op %d: binary update %d: router existed=%v, reference %v", i, op.Obj.ID, got, want)
				}
			case datagen.OpWindow:
				got, err := bc.Window(op.Window, "")
				if err != nil {
					t.Fatalf("op %d: binary query: %v", i, err)
				}
				want := ref.WindowQuery(op.Window, store.TechComplete)
				if !equalU64(sortedU64(got.IDs), sortedU64(idsToU64(want.IDs))) {
					t.Fatalf("op %d: window %v mid-churn: binary router != reference", i, op.Window)
				}
			}
		}

		agreeStream(t, name+"/churned-bin", &btc, ref, stream, new(coverage))
		compareRouted(t, name+"/churned", tc.client, &bc, ws, pts, ks)
	})
}

// techOrg records the technique of every window query that reaches it.
type techOrg struct {
	store.Organization
	seen chan store.Technique
}

func (o *techOrg) WindowQuery(w geom.Rect, tech store.Technique) store.QueryResult {
	o.seen <- tech
	return o.Organization.WindowQuery(w, tech)
}

// TestUnnamedTechniqueIsTheShardsDefault: a window query that names no
// technique runs as vector read on the store that executes it — asked in
// either codec, directly or through the router's binary hop — and a named
// technique arrives as named.
func TestUnnamedTechniqueIsTheShardsDefault(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 1024, Seed: 7})
	org := &techOrg{Organization: buildOrg(ds.Spec.SmaxBytes(), ds.Objects, ds.MBRs), seen: make(chan store.Technique, 1)}
	hs := httptest.NewServer(server.New(org, server.Config{}).Handler())
	t.Cleanup(hs.Close)
	direct := server.NewClient(hs.URL, 1)
	hop := server.NewClient(hs.URL, 1)
	hop.Binary = true
	rt, err := router.New(shard.Uniform(1), []*server.Client{hop}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	routed := server.NewClient(rs.URL, 1)

	for _, via := range []struct {
		name string
		c    *server.Client
	}{{"direct", direct}, {"routed", routed}} {
		for _, binary := range []bool{false, true} {
			c := *via.c
			c.Binary = binary
			for name, want := range map[string]store.Technique{"": store.TechSLMVector, "complete": store.TechComplete, "page": store.TechPageByPage} {
				if _, err := c.Window(geom.R(0.2, 0.2, 0.4, 0.4), name); err != nil {
					t.Fatalf("%s binary=%v tech %q: %v", via.name, binary, name, err)
				}
				if got := <-org.seen; got != want {
					t.Errorf("%s binary=%v tech %q: the store ran %v, want %v", via.name, binary, name, got, want)
				}
			}
		}
	}
}

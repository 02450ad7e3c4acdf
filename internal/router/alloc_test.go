package router_test

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestRoutedQueryAllocs pins what a routed query allocates in the whole
// process — router, shard exchanges over loopback, shard servers — on a
// 3-shard cluster: per-query scatter state is pooled, so what is left is the
// answer and the exchanges. Ceilings are 1.25x what the code measured when
// they were set (1-shard window 3, 2-shard window 6, point 3, 9-NN 6); before
// the scatter state was pooled the same calls measured 10, 19, 10 and 17.
// The collector is off during the count, so a pooled state cannot be
// dropped between runs and show as a stray allocation.
func TestRoutedQueryAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesA, Scale: 128, Seed: 9})
	tc := clusterFromDataset(t, ds, 3)
	rng := rand.New(rand.NewSource(31))
	var win [3]geom.Rect // by fan-out width
	for tries := 0; win[1] == (geom.Rect{}) || win[2] == (geom.Rect{}); tries++ {
		if tries == 10000 {
			t.Fatal("found no 1-shard and 2-shard windows")
		}
		x, y := rng.Float64()*0.94, rng.Float64()*0.94
		w := geom.R(x, y, x+0.06, y+0.06)
		if n := len(tc.pmap.Overlapping(w)); n < len(win) && win[n] == (geom.Rect{}) {
			win[n] = w
		}
	}
	p := ds.Objects[0].Geom.Segments()[0].A
	rq := &server.Request{Ctx: context.Background()}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name  string
		call  func() (int, error)
		limit float64
	}{
		{"1-shard window", func() (int, error) {
			r, err := tc.rt.Window(rq, win[1], store.TechComplete)
			return len(r.IDs), err
		}, 3 * 1.25},
		{"2-shard window", func() (int, error) {
			r, err := tc.rt.Window(rq, win[2], store.TechComplete)
			return len(r.IDs), err
		}, 6 * 1.25},
		{"point", func() (int, error) {
			r, err := tc.rt.Point(rq, p)
			return len(r.IDs), err
		}, 3 * 1.25},
		{"9-NN", func() (int, error) {
			r, err := tc.rt.KNN(rq, p, 9)
			return len(r.IDs), err
		}, 6 * 1.25},
	} {
		n := 0
		got := testing.AllocsPerRun(200, func() {
			var err error
			if n, err = c.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.limit {
			t.Errorf("a routed %s (%d IDs) allocates %v times, ceiling %v", c.name, n, got, c.limit)
		} else {
			t.Logf("a routed %s (%d IDs) allocates %v times", c.name, n, got)
		}
	}
}

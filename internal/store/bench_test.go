package store

import (
	"testing"

	"spatialcluster/internal/datagen"
)

var (
	benchResult  QueryResult
	benchNearest NearestResult
)

// BenchmarkClusterQueries times the store layer alone — R*-tree, buffer,
// modelled disk, capture and refinement, no harness — on the shape of the
// benchmark's engine_read workload at a quarter of its scale: a cluster store
// about 22 times its buffer answering windows of 0.1 % of the space read
// complete, point queries and 10-NN queries, each kind cycling through its
// own query list on one warm buffer. Run it with -benchmem.
func BenchmarkClusterQueries(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 1})
	c := NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		if err := c.Insert(o, ds.MBRs[i]); err != nil {
			b.Fatal(err)
		}
	}
	c.Flush()
	b.Logf("%d objects on %d pages behind a %d-page buffer", len(ds.Objects), c.Stats().OccupiedPages, c.Env().Buf.Capacity())
	ws, pts := ds.Windows(0.001, 512, 2), ds.Points(512, 3)
	b.Run("window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchResult = c.WindowQuery(ws[i%len(ws)], TechComplete)
		}
	})
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchResult = c.PointQuery(pts[i%len(pts)])
		}
	})
	b.Run("knn10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNearest = c.NearestQuery(pts[i%len(pts)], 10)
		}
	})
}

// Wall-clock benchmarks of the store's core operations and of the parallel
// query/join engine, built through the facade's builder. The benchmarks that
// regenerate the paper's tables and figures, and the ablations of its design
// choices, live beside the drivers in internal/exp.
package spatialcluster_test

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	sc "spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/join"
	"spatialcluster/internal/store"
)

// buildCluster builds a flushed cluster organization over ds with a
// bufPages-page buffer.
func buildCluster(b *testing.B, ds *sc.Dataset, bufPages int) sc.Organization {
	org, err := sc.NewStore("cluster", sc.StoreConfig{BufferPages: bufPages, SmaxBytes: ds.Spec.SmaxBytes()}, ds.Objects, ds.MBRs)
	if err != nil {
		b.Fatal(err)
	}
	return org
}

// coolObjectPages evicts every data and object page from org's buffer; the
// R*-tree directory stays cached.
func coolObjectPages(org sc.Organization) { org.Env().Buf.Retain(org.Tree().IsDirPage) }

// --- Micro-benchmarks of the core operations (wall-clock, -benchmem) ---

// BenchmarkCoreInsert measures cluster-organization insertion throughput.
func BenchmarkCoreInsert(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 8, Seed: 2})
	empty := func() sc.Organization {
		s, err := sc.NewStore("cluster", sc.StoreConfig{BufferPages: 1024, SmaxBytes: ds.Spec.SmaxBytes()}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := empty()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(ds.Objects) == 0 {
			b.StopTimer()
			s = empty()
			b.StartTimer()
		}
		j := i % len(ds.Objects)
		if err := s.Insert(ds.Objects[j], ds.MBRs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreWindowQuery measures window-query throughput on a built
// cluster organization.
func BenchmarkCoreWindowQuery(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 2})
	org := buildCluster(b, ds, 1024)
	ws := ds.Windows(0.001, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		org.WindowQuery(ws[i%len(ws)], sc.TechComplete)
	}
}

// --- Parallel engine benchmarks (wall-clock; see also clusterbench -exp
// parallel, which emits the same measurements as BENCH_parallel.json) ---

// BenchmarkParallelJoin measures the wall-clock spatial join at 1 worker and
// at GOMAXPROCS workers on the same inputs, reporting the speedup. The
// modelled I/O cost and the result cardinalities are asserted identical —
// the dispatcher charges all reads in plane order regardless of the pool
// size.
func BenchmarkParallelJoin(b *testing.B) {
	dsR := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 64, Seed: 2, MBRScale: 3})
	dsS := datagen.Generate(datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesA, Scale: 64, Seed: 2, MBRScale: 3})
	orgR := buildCluster(b, dsR, 256)
	orgS := buildCluster(b, dsS, 256)
	workers := runtime.GOMAXPROCS(0)
	cfg := join.Config{BufferPages: 800, Technique: store.TechSLM}
	params := orgR.Env().Params()
	cool := func() {
		coolObjectPages(orgR)
		coolObjectPages(orgS)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cool()
		cfg.Workers = 1
		start := time.Now()
		serial := join.Run(orgR, orgS, cfg)
		serialSec := time.Since(start).Seconds()

		cool()
		cfg.Workers = workers
		start = time.Now()
		parallel := join.Run(orgR, orgS, cfg)
		parallelSec := time.Since(start).Seconds()

		if serial.ResultPairs != parallel.ResultPairs ||
			serial.IOTimeMS(params) != parallel.IOTimeMS(params) {
			b.Fatalf("worker count leaked into results: %d/%.1f vs %d/%.1f",
				serial.ResultPairs, serial.IOTimeMS(params),
				parallel.ResultPairs, parallel.IOTimeMS(params))
		}
		b.ReportMetric(serialSec, "join-1w-s")
		b.ReportMetric(parallelSec, "join-Nw-s")
		if parallelSec > 0 {
			b.ReportMetric(serialSec/parallelSec, "speedup-x")
		}
	}
}

// BenchmarkParallelWindowQueries measures concurrent window-query throughput
// on a shared buffer: b.RunParallel runs the windows on GOMAXPROCS goroutines,
// each query locking the store itself, and every answer must be the one the
// window gets alone.
func BenchmarkParallelWindowQueries(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 2})
	org := buildCluster(b, ds, 1024)
	ws := ds.Windows(0.001, 256, 3)
	want := make([]int, len(ws))
	for i, w := range ws {
		want[i] = len(org.WindowQuery(w, sc.TechSLM).IDs)
	}
	coolObjectPages(org)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % len(ws)
			if got := len(org.WindowQuery(ws[i], sc.TechSLM).IDs); got != want[i] {
				b.Errorf("window %d answers %d concurrently, %d alone", i, got, want[i])
			}
		}
	})
}

// BenchmarkParallelNearestQueries is BenchmarkParallelWindowQueries for
// 10-NN queries: every concurrent answer list must be the one the point gets
// alone.
func BenchmarkParallelNearestQueries(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 2})
	org := buildCluster(b, ds, 1024)
	pts := ds.Points(256, 3)
	want := make([][]sc.ObjectID, len(pts))
	for i, pt := range pts {
		want[i] = org.NearestQuery(pt, 10).IDs
	}
	coolObjectPages(org)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % len(pts)
			if got := org.NearestQuery(pts[i], 10).IDs; !slices.Equal(got, want[i]) {
				b.Errorf("point %d: 10-NN %v concurrently, %v alone", i, got, want[i])
			}
		}
	})
}

// BenchmarkCoreJoin measures full spatial-join throughput at a small scale.
func BenchmarkCoreJoin(b *testing.B) {
	dsR := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 2, MBRScale: 4})
	dsS := datagen.Generate(datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesA, Scale: 128, Seed: 2, MBRScale: 4})
	orgR := buildCluster(b, dsR, 256)
	orgS := buildCluster(b, dsS, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.Run(orgR, orgS, join.Config{BufferPages: 400, Technique: store.TechComplete})
	}
}

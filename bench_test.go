// Benchmarks that regenerate the paper's tables and figures, one benchmark
// per table/figure, plus ablation
// benchmarks for the design choices the paper calls out. Benchmarks run at a
// reduced scale so the whole suite completes in minutes; the clusterbench
// command runs the same drivers at any scale.
//
// The benchmark *metrics* are the paper's measures (modelled I/O seconds,
// msec/4KB, occupied pages), reported via b.ReportMetric; Go's ns/op numbers
// only reflect simulation wall-clock and are not the reproduction target.
package spatialcluster_test

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	sc "spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/exp"
	"spatialcluster/internal/join"
	"spatialcluster/internal/store"
)

// benchOpts is the shared experiment configuration for benchmarks: 1/64 of
// the paper's data, a reduced query count.
func benchOpts() exp.Options {
	return exp.Options{Scale: 64, Queries: 60, BuildBufPages: 100, Seed: 1}.WithDefaults()
}

// BenchmarkTable1Maps regenerates Table 1 (map and test series
// characteristics).
func BenchmarkTable1Maps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table1(benchOpts())
		if len(r.Rows) != 6 {
			b.Fatal("table 1 incomplete")
		}
		b.ReportMetric(r.Rows[0].AvgSize, "A-1-avg-bytes")
	}
}

// BenchmarkFig5Construction regenerates Figure 5 (construction I/O cost of
// the three organization models over all six series).
func BenchmarkFig5Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig5And6(benchOpts())
		var sec, prim, clus float64
		for _, row := range r.Rows {
			switch row.Org {
			case exp.OrgSecondary:
				sec += row.ConstructionSec
			case exp.OrgPrimary:
				prim += row.ConstructionSec
			case exp.OrgCluster:
				clus += row.ConstructionSec
			}
		}
		b.ReportMetric(sec, "sec-IO-s")
		b.ReportMetric(prim, "prim-IO-s")
		b.ReportMetric(clus, "cluster-IO-s")
	}
}

// BenchmarkFig6Storage regenerates Figure 6 (storage utilization in occupied
// pages).
func BenchmarkFig6Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig5And6(benchOpts())
		var sec, prim, clus int
		for _, row := range r.Rows {
			switch row.Org {
			case exp.OrgSecondary:
				sec += row.OccupiedPages
			case exp.OrgPrimary:
				prim += row.OccupiedPages
			case exp.OrgCluster:
				clus += row.OccupiedPages
			}
		}
		b.ReportMetric(float64(sec), "sec-pages")
		b.ReportMetric(float64(prim), "prim-pages")
		b.ReportMetric(float64(clus), "cluster-pages")
	}
}

// BenchmarkFig7Buddy regenerates Figure 7 (restricted buddy system: storage
// utilization and construction cost).
func BenchmarkFig7Buddy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig7(benchOpts())
		var fixed, buddy int
		for _, row := range r.Rows {
			fixed += row.PagesFixed
			buddy += row.PagesBuddy
		}
		b.ReportMetric(float64(fixed), "fixed-pages")
		b.ReportMetric(float64(buddy), "buddy-pages")
	}
}

// BenchmarkFig8WindowOrgs regenerates Figure 8 (window queries across the
// organization models). The headline metric is the cluster organization's
// speedup over the secondary organization at the largest window size.
func BenchmarkFig8WindowOrgs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig8(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Series == "A-1" && c.AreaFrac == 0.1 {
				switch c.Column {
				case string(exp.OrgSecondary):
					sec = c.Summary.MSPer4KB()
				case string(exp.OrgCluster):
					clus = c.Summary.MSPer4KB()
				}
			}
		}
		b.ReportMetric(sec/clus, "A1-10pct-speedup-x")
	}
}

// BenchmarkFig10Techniques regenerates Figure 10 (window-query techniques on
// the cluster organization), reporting the SLM saving on C-1 0.001% windows.
func BenchmarkFig10Techniques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig10(benchOpts())
		var complete, slm float64
		for _, c := range r.Cells {
			if c.Series == "C-1" && c.AreaFrac == 0.00001 {
				switch c.Column {
				case "complete":
					complete = c.Summary.MSPer4KB()
				case "SLM":
					slm = c.Summary.MSPer4KB()
				}
			}
		}
		b.ReportMetric((1-slm/complete)*100, "C1-SLM-saving-pct")
	}
}

// BenchmarkFig11Adaptation regenerates Figure 11 (cluster-size adaptation
// gains on B-1).
func BenchmarkFig11Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig11(benchOpts())
		for _, row := range r.Rows {
			if row.Technique == "complete" {
				b.ReportMetric(row.GainFactor100, "complete-gain100-pct")
			}
			if row.Technique == "SLM" {
				b.ReportMetric(row.GainFactor100, "SLM-gain100-pct")
			}
		}
	}
}

// BenchmarkFig12PointQueries regenerates Figure 12 (point queries across the
// organization models), reporting the cluster/secondary cost ratio (the
// paper finds them nearly equal).
func BenchmarkFig12PointQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig12(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Series == "B-1" {
				switch c.Org {
				case exp.OrgSecondary:
					sec = c.Summary.MSPer4KB()
				case exp.OrgCluster:
					clus = c.Summary.MSPer4KB()
				}
			}
		}
		b.ReportMetric(clus/sec, "B1-cluster-vs-sec")
	}
}

// BenchmarkFig14JoinOrgs regenerates Figure 14 (spatial join across the
// organization models and buffer sizes), reporting the cluster speedup at
// the largest buffer for version b.
func BenchmarkFig14JoinOrgs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig14(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Version == exp.VersionB && c.BufferPages == 6400 {
				switch c.Column {
				case string(exp.OrgSecondary):
					sec = c.IOSec
				case string(exp.OrgCluster):
					clus = c.IOSec
				}
			}
		}
		b.ReportMetric(sec/clus, "b-6400-speedup-x")
	}
}

// BenchmarkFig16JoinTechniques regenerates Figure 16 (join read techniques
// on the cluster organization), reporting how close the SLM read comes to
// the theoretical optimum at the largest buffer.
func BenchmarkFig16JoinTechniques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig16(benchOpts())
		for _, c := range r.Cells {
			if c.Version == exp.VersionA && c.Column == "read" && c.BufferPages == 6400 {
				b.ReportMetric(c.IOSec/c.OptSec, "a-read-vs-opt")
			}
		}
	}
}

// BenchmarkFig17CompleteJoin regenerates Figure 17 (complete intersection
// join breakdown), reporting the total-time speedup of the cluster over the
// secondary organization.
func BenchmarkFig17CompleteJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig17(benchOpts())
		var sec, clus float64
		for _, row := range r.Rows {
			if row.Version == exp.VersionB {
				switch row.Org {
				case exp.OrgSecondary:
					sec = row.TotalSec()
				case exp.OrgCluster:
					clus = row.TotalSec()
				}
			}
		}
		b.ReportMetric(sec/clus, "b-total-speedup-x")
	}
}

// --- Ablation benchmarks for design choices of the reproduction ---

// BenchmarkAblationLeafReinsert measures the effect of the cluster
// organization's modification of the R*-tree (no forced reinsert on the data
// page level, paper section 4.2.1) on construction cost.
func BenchmarkAblationLeafReinsert(b *testing.B) {
	o := benchOpts()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed})
	for i := 0; i < b.N; i++ {
		with := exp.Build(exp.OrgSecondary, ds, o.BuildBufPages) // reinserts on
		without := exp.Build(exp.OrgCluster, ds, o.BuildBufPages)
		b.ReportMetric(with.ConstructionSec, "with-reinsert-IO-s")
		b.ReportMetric(without.ConstructionSec, "cluster-no-leaf-reinsert-IO-s")
	}
}

// BenchmarkAblationBuddySizes sweeps the number of buddy sizes (1 = fixed
// units ... 5) and reports occupied pages, extending Figure 7 beyond the
// paper's restricted system.
func BenchmarkAblationBuddySizes(b *testing.B) {
	o := benchOpts()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesB, Scale: o.Scale, Seed: o.Seed})
	for i := 0; i < b.N; i++ {
		for _, sizes := range []int{1, 2, 3, 5} {
			env := store.NewEnv(o.BuildBufPages)
			c := store.NewCluster(env, store.ClusterConfig{
				SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: sizes,
			})
			for j, obj := range ds.Objects {
				c.Insert(obj, ds.MBRs[j])
			}
			c.Flush()
			b.ReportMetric(float64(c.Stats().OccupiedPages),
				map[int]string{1: "sizes1-pages", 2: "sizes2-pages", 3: "sizes3-pages", 5: "sizes5-pages"}[sizes])
		}
	}
}

// BenchmarkAblationSLMGap sweeps the SLM gap parameter l around the paper's
// l = tl/tt − ½ and reports window-query cost on C-1 small windows, showing
// the technique is robust in l.
func BenchmarkAblationSLMGap(b *testing.B) {
	o := benchOpts()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesC, Scale: o.Scale, Seed: o.Seed})
	built := exp.Build(exp.OrgCluster, ds, o.BuildBufPages)
	ws := ds.Windows(0.00001, 40, 7)
	params := disk.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The production gap comes from Params.SLMGapLength; here we
		// compare it against the page-by-page (l=1) and complete-unit
		// extremes that bracket it.
		slm := exp.RunWindowQueries(built.Org, ws, store.TechSLM)
		page := exp.RunWindowQueries(built.Org, ws, store.TechPageByPage)
		complete := exp.RunWindowQueries(built.Org, ws, store.TechComplete)
		b.ReportMetric(slm.MSPer4KB(), "SLM-ms-per-4KB")
		b.ReportMetric(page.MSPer4KB(), "l1-ms-per-4KB")
		b.ReportMetric(complete.MSPer4KB(), "complete-ms-per-4KB")
		_ = params
	}
}

// BenchmarkAblationHilbertBulkLoad compares dynamic insertion against
// Hilbert-packed bulk loading of the cluster organization (static global
// clustering; the bands note that Hilbert packing is the classical
// alternative). Metrics: modelled construction I/O seconds for both paths.
func BenchmarkAblationHilbertBulkLoad(b *testing.B) {
	o := benchOpts()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed})
	for i := 0; i < b.N; i++ {
		dyn := exp.Build(exp.OrgCluster, ds, o.BuildBufPages)
		b.ReportMetric(dyn.ConstructionSec, "dynamic-IO-s")

		env := store.NewEnv(o.BuildBufPages)
		c := store.NewCluster(env, store.ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
		env.Disk.ResetCost()
		c.BulkLoadHilbert(ds.Objects, ds.MBRs, 0.9)
		env.Buf.Clear()
		b.ReportMetric(env.Disk.Cost().TimeSec(env.Params()), "hilbert-bulk-IO-s")
	}
}

// --- Micro-benchmarks of the core operations (wall-clock, -benchmem) ---

// BenchmarkCoreInsert measures cluster-organization insertion throughput.
func BenchmarkCoreInsert(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 8, Seed: 2})
	s := sc.NewClusterStore(sc.StoreConfig{BufferPages: 1024, SmaxBytes: ds.Spec.SmaxBytes()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(ds.Objects) == 0 {
			b.StopTimer()
			s = sc.NewClusterStore(sc.StoreConfig{BufferPages: 1024, SmaxBytes: ds.Spec.SmaxBytes()})
			b.StartTimer()
		}
		j := i % len(ds.Objects)
		s.Insert(ds.Objects[j], ds.MBRs[j])
	}
}

// BenchmarkCoreWindowQuery measures window-query throughput on a built
// cluster organization.
func BenchmarkCoreWindowQuery(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 2})
	built := exp.Build(exp.OrgCluster, ds, 1024)
	ws := ds.Windows(0.001, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.Org.WindowQuery(ws[i%len(ws)], sc.TechComplete)
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
	orgR := exp.Build(exp.OrgCluster, dsR, 256).Org
	orgS := exp.Build(exp.OrgCluster, dsS, 256).Org
	workers := runtime.GOMAXPROCS(0)
	cfg := join.Config{BufferPages: 800, Technique: store.TechSLM}
	params := orgR.Env().Params()
	cool := func() {
		exp.CoolObjectPages(orgR)
		exp.CoolObjectPages(orgS)
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
	org := exp.Build(exp.OrgCluster, ds, 1024).Org
	ws := ds.Windows(0.001, 256, 3)
	want := make([]int, len(ws))
	for i, w := range ws {
		want[i] = len(org.WindowQuery(w, sc.TechSLM).IDs)
	}
	exp.CoolObjectPages(org)
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

// BenchmarkKNNOrgs measures cold k-NN (distance browsing) cost per query on
// every organization, reporting the paper-style modelled ms/query and the
// secondary-vs-cluster ratio — the selective-workload standing of §5.5.
func BenchmarkKNNOrgs(b *testing.B) {
	o := benchOpts()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed})
	pts := ds.Points(o.Queries, 3)
	orgs := []struct {
		name string
		org  store.Organization
	}{
		{"sec", exp.Build(exp.OrgSecondary, ds, o.BuildBufPages).Org},
		{"prim", exp.Build(exp.OrgPrimary, ds, o.BuildBufPages).Org},
		{"clus", exp.Build(exp.OrgCluster, ds, o.BuildBufPages).Org},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msPer := map[string]float64{}
		for _, e := range orgs {
			sum := exp.RunNearestQueries(e.org, pts, 10)
			msPer[e.name] = sum.TotalMS / float64(sum.Queries)
			b.ReportMetric(msPer[e.name], e.name+"-ms-per-10NN")
		}
		if msPer["clus"] > 0 {
			b.ReportMetric(msPer["sec"]/msPer["clus"], "sec-vs-cluster-x")
		}
	}
}

// BenchmarkParallelNearestQueries is BenchmarkParallelWindowQueries for
// 10-NN queries: every concurrent answer list must be the one the point gets
// alone.
func BenchmarkParallelNearestQueries(b *testing.B) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 2})
	org := exp.Build(exp.OrgCluster, ds, 1024).Org
	pts := ds.Points(256, 3)
	want := make([][]sc.ObjectID, len(pts))
	for i, pt := range pts {
		want[i] = org.NearestQuery(pt, 10).IDs
	}
	exp.CoolObjectPages(org)
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
	orgR := exp.Build(exp.OrgCluster, dsR, 256).Org
	orgS := exp.Build(exp.OrgCluster, dsS, 256).Org
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.Run(orgR, orgS, join.Config{BufferPages: 400, Technique: store.TechComplete})
	}
}

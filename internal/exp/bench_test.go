// Benchmarks that regenerate the paper's tables and figures, one benchmark
// per table/figure, plus ablation benchmarks for the design choices the
// paper calls out. Benchmarks run at a reduced scale so the whole suite
// completes in seconds; the clusterbench command runs the same drivers at
// any scale.
//
// The benchmark *metrics* are the paper's measures (modelled I/O seconds,
// msec/4KB, occupied pages), reported via b.ReportMetric; Go's ns/op numbers
// only reflect simulation wall-clock and are not the reproduction target.
package exp

import (
	"testing"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// benchOpts is the shared experiment configuration for benchmarks: 1/64 of
// the paper's data, a reduced query count.
func benchOpts() Options {
	return Options{Scale: 64, Queries: 60, Seed: 1}.WithDefaults()
}

// BenchmarkTable1Maps regenerates Table 1 (map and test series
// characteristics).
func BenchmarkTable1Maps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := table1(benchOpts())
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
		r := fig5And6(benchOpts())
		var sec, prim, clus float64
		for _, row := range r.Rows {
			switch row.Org {
			case orgSecondary:
				sec += row.ConstructionSec
			case orgPrimary:
				prim += row.ConstructionSec
			case orgCluster:
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
		r := fig5And6(benchOpts())
		var sec, prim, clus int
		for _, row := range r.Rows {
			switch row.Org {
			case orgSecondary:
				sec += row.OccupiedPages
			case orgPrimary:
				prim += row.OccupiedPages
			case orgCluster:
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
		r := fig7(benchOpts())
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
		r := fig8(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Series == "A-1" && c.AreaFrac == 0.1 {
				switch c.Column {
				case string(orgSecondary):
					sec = c.Summary.MSPer4KB()
				case string(orgCluster):
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
		r := fig10(benchOpts())
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
		r := fig11(benchOpts())
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
		r := fig12(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Series == "B-1" {
				switch c.Org {
				case orgSecondary:
					sec = c.Summary.MSPer4KB()
				case orgCluster:
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
		r := fig14(benchOpts())
		var sec, clus float64
		for _, c := range r.Cells {
			if c.Version == versionB && c.BufferPages == 6400 {
				switch c.Column {
				case string(orgSecondary):
					sec = c.IOSec
				case string(orgCluster):
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
		r := fig16(benchOpts())
		for _, c := range r.Cells {
			if c.Version == versionA && c.Column == "read" && c.BufferPages == 6400 {
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
		r := fig17(benchOpts())
		var sec, clus float64
		for _, row := range r.Rows {
			if row.Version == versionB {
				switch row.Org {
				case orgSecondary:
					sec = row.TotalSec()
				case orgCluster:
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
		with := build(orgSecondary, ds, o.storeConfig()) // reinserts on
		without := build(orgCluster, ds, o.storeConfig())
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
			cfg := o.storeConfig()
			cfg.SmaxBytes, cfg.BuddySizes = ds.Spec.SmaxBytes(), sizes
			c, err := spatialcluster.NewStore("cluster", cfg, ds.Objects, ds.MBRs)
			if err != nil {
				b.Fatal(err)
			}
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
	built := build(orgCluster, ds, o.storeConfig())
	ws := ds.Windows(0.00001, 40, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The production gap comes from Params.SLMGapLength; here we
		// compare it against the page-by-page (l=1) and complete-unit
		// extremes that bracket it.
		slm := runWindowQueries(built.Org, ws, store.TechSLM)
		page := runWindowQueries(built.Org, ws, store.TechPageByPage)
		complete := runWindowQueries(built.Org, ws, store.TechComplete)
		b.ReportMetric(slm.MSPer4KB(), "SLM-ms-per-4KB")
		b.ReportMetric(page.MSPer4KB(), "l1-ms-per-4KB")
		b.ReportMetric(complete.MSPer4KB(), "complete-ms-per-4KB")
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
		dyn := build(orgCluster, ds, o.storeConfig())
		b.ReportMetric(dyn.ConstructionSec, "dynamic-IO-s")

		cfg := o.storeConfig()
		cfg.SmaxBytes = ds.Spec.SmaxBytes()
		c, err := spatialcluster.NewStore("cluster", cfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		env := c.Env()
		env.Disk.ResetCost()
		spatialcluster.BulkLoadHilbert(c, ds.Objects, ds.MBRs, 0.9)
		env.Buf.Clear()
		b.ReportMetric(env.Disk.Cost().TimeSec(env.Params()), "hilbert-bulk-IO-s")
	}
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
		{"sec", build(orgSecondary, ds, o.storeConfig()).Org},
		{"prim", build(orgPrimary, ds, o.storeConfig()).Org},
		{"clus", build(orgCluster, ds, o.storeConfig()).Org},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msPer := map[string]float64{}
		for _, e := range orgs {
			sum := runCold(e.org, len(pts), store.TechComplete, func(i int) datagen.Op {
				return datagen.Op{Kind: datagen.OpKNN, Point: pts[i], K: 10}
			})
			msPer[e.name] = sum.TotalMS / float64(sum.Queries)
			b.ReportMetric(msPer[e.name], e.name+"-ms-per-10NN")
		}
		if msPer["clus"] > 0 {
			b.ReportMetric(msPer["sec"]/msPer["clus"], "sec-vs-cluster-x")
		}
	}
}

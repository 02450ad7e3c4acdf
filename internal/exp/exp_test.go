package exp

import (
	"strings"
	"testing"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// tinyOpts keeps experiment tests fast while preserving tree depth.
func tinyOpts() Options {
	return Options{Scale: 64, Queries: 40, Seed: 1}.WithDefaults()
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 8 || o.Queries != 678 || o.storeConfig().BufferPages != 50 {
		t.Fatalf("defaults = %+v, build buffer %d", o, o.storeConfig().BufferPages)
	}
	if full := (Options{Scale: 1}).WithDefaults(); full.storeConfig().BufferPages != 400 {
		t.Fatalf("full-scale build buffer = %d, want 400", full.storeConfig().BufferPages)
	}
	if o.Progress == nil {
		t.Fatal("Progress must be non-nil after defaults")
	}
}

func TestScaledBuffer(t *testing.T) {
	o := Options{Scale: 16}.WithDefaults()
	if got := o.scaledBuffer(6400); got != 1600 {
		t.Fatalf("scaledBuffer(6400) at scale 16 = %d, want 1600 (÷√16)", got)
	}
	if got := o.scaledBuffer(1); got != 32 {
		t.Fatalf("minimum buffer = %d, want 32", got)
	}
	full := Options{Scale: 1}.WithDefaults()
	if got := full.scaledBuffer(1600); got != 1600 {
		t.Fatalf("full scale must not scale buffers: %d", got)
	}
}

func TestTable1(t *testing.T) {
	r := table1(tinyOpts())
	pinModelled(t, "table1", r)
	if len(r.Rows) != 6 {
		t.Fatalf("Table 1 rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		dev := (row.AvgSize - float64(row.TargetSize)) / float64(row.TargetSize)
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("%s: avg size %.0f deviates %.0f%% from target %d",
				row.Name, row.AvgSize, dev*100, row.TargetSize)
		}
	}
	out := r.Render()
	for _, want := range []string{"A-1", "C-2", "Smax"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig5And6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("construction sweep is slow")
	}
	r := fig5And6(tinyOpts())
	pinModelled(t, "fig5", r)
	if len(r.Rows) != 18 {
		t.Fatalf("rows = %d, want 6 series x 3 orgs", len(r.Rows))
	}
	for _, s := range r.seriesNames() {
		sec := r.row(s, orgSecondary)
		prim := r.row(s, orgPrimary)
		clus := r.row(s, orgCluster)
		// Figure 5 shape: the primary organization is the most expensive
		// to construct.
		if prim.ConstructionSec <= sec.ConstructionSec || prim.ConstructionSec <= clus.ConstructionSec {
			t.Errorf("%s: primary construction %f not the most expensive (sec %f, cluster %f)",
				s, prim.ConstructionSec, sec.ConstructionSec, clus.ConstructionSec)
		}
		// Figure 6 shape: secondary best, cluster (fixed Smax) worst.
		if !(sec.OccupiedPages < prim.OccupiedPages) {
			t.Errorf("%s: secondary storage %d not best (prim %d)", s, sec.OccupiedPages, prim.OccupiedPages)
		}
		if !(clus.OccupiedPages > sec.OccupiedPages) {
			t.Errorf("%s: cluster storage %d not above secondary %d", s, clus.OccupiedPages, sec.OccupiedPages)
		}
	}
	// The primary organization's construction cost rises far more with
	// object size (A-1 -> C-1) than the secondary organization's.
	primDelta := r.row("C-1", orgPrimary).ConstructionSec - r.row("A-1", orgPrimary).ConstructionSec
	secDelta := r.row("C-1", orgSecondary).ConstructionSec - r.row("A-1", orgSecondary).ConstructionSec
	if primDelta < 2*secDelta {
		t.Errorf("primary size dependency (+%.0f s) should far exceed secondary's (+%.0f s)",
			primDelta, secDelta)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Figure 6") {
		t.Error("render titles missing")
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("construction sweep is slow")
	}
	r := fig7(tinyOpts())
	pinModelled(t, "fig7", r)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The restricted buddy system must improve utilization markedly
		// and come close to the primary organization (paper Figure 7).
		if row.PagesBuddy >= row.PagesFixed {
			t.Errorf("%s: buddy %d pages not better than fixed %d", row.Series, row.PagesBuddy, row.PagesFixed)
		}
		if float64(row.PagesBuddy) > 1.6*float64(row.PagesPrim) {
			t.Errorf("%s: buddy %d pages too far above primary %d", row.Series, row.PagesBuddy, row.PagesPrim)
		}
		// Construction with the buddy system is only moderately dearer.
		if row.ConstructionBuddySec > 2*row.ConstructionFixedSec {
			t.Errorf("%s: buddy construction %.0f s too far above fixed %.0f s",
				row.Series, row.ConstructionBuddySec, row.ConstructionFixedSec)
		}
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Error("render title missing")
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("query sweep is slow")
	}
	r := fig8(tinyOpts())
	pinModelled(t, "fig8", r)
	get := func(series, col string, area float64) float64 {
		for _, c := range r.Cells {
			if c.Series == series && c.Column == col && c.AreaFrac == area {
				return c.Summary.MSPer4KB()
			}
		}
		t.Fatalf("missing cell %s/%s/%g", series, col, area)
		return 0
	}
	for _, series := range []string{"A-1", "C-1"} {
		// Large windows: the cluster organization must win clearly
		// (paper: factors up to 20 on A-1 and 12.5 on C-1).
		big := 0.1
		sec, clus := get(series, string(orgSecondary), big), get(series, string(orgCluster), big)
		if sec/clus < 3 {
			t.Errorf("%s 10%%: cluster speedup only %.2fx (sec %.1f, cluster %.1f)",
				series, sec/clus, sec, clus)
		}
		// Monotonicity: the cluster advantage grows with the window.
		small := 0.00001
		if rSmall, rBig := get(series, string(orgSecondary), small)/get(series, string(orgCluster), small),
			sec/clus; rBig < rSmall {
			t.Errorf("%s: cluster advantage shrank with window size (%.2f -> %.2f)", series, rSmall, rBig)
		}
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Error("render title missing")
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("query sweep is slow")
	}
	r := fig10(tinyOpts())
	pinModelled(t, "fig10", r)
	get := func(series, col string, area float64) float64 {
		for _, c := range r.Cells {
			if c.Series == series && c.Column == col && c.AreaFrac == area {
				return c.Summary.MSPer4KB()
			}
		}
		t.Fatalf("missing cell %s/%s/%g", series, col, area)
		return 0
	}
	for _, series := range []string{"A-1", "C-1"} {
		for _, area := range datagen.WindowAreas {
			complete := get(series, "complete", area)
			slm := get(series, "SLM", area)
			thr := get(series, "threshold", area)
			opt := get(series, "opt.", area)
			if opt > complete+1e-9 || opt > slm+1e-9 || opt > thr+1e-9 {
				t.Errorf("%s %g: optimum %.2f above a technique (c=%.2f t=%.2f s=%.2f)",
					series, area, opt, complete, thr, slm)
			}
			if slm > complete*1.02 {
				t.Errorf("%s %g: SLM %.2f worse than complete %.2f", series, area, slm, complete)
			}
		}
		// Small queries benefit most from SLM on the large-object series.
		if series == "C-1" {
			saving := 1 - get(series, "SLM", 0.00001)/get(series, "complete", 0.00001)
			if saving < 0.1 {
				t.Errorf("C-1 0.001%%: SLM saving %.0f%% too small", saving*100)
			}
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster size sweep is slow")
	}
	r := fig11(tinyOpts())
	pinModelled(t, "fig11", r)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Gains are non-negative by construction (best size is at least
		// as good as any stale size) and larger area changes cannot give
		// smaller *potential* than no change at all.
		if row.GainFactor10 < -1e-9 || row.GainFactor100 < -1e-9 {
			t.Errorf("%s: negative gain %f/%f", row.Technique, row.GainFactor10, row.GainFactor100)
		}
		if row.GainFactor10 > 100 || row.GainFactor100 > 100 {
			t.Errorf("%s: gain above 100%%", row.Technique)
		}
	}
	// With a sophisticated technique the adaptation gain shrinks
	// (paper: complete 23%, threshold 6.5%, SLM 11% at factor 100).
	var complete, slm float64
	for _, row := range r.Rows {
		switch row.Technique {
		case "complete":
			complete = row.GainFactor100
		case "SLM":
			slm = row.GainFactor100
		}
	}
	if slm > complete+10 {
		t.Errorf("SLM adaptation gain %.1f%% should not exceed complete %.1f%% by much", slm, complete)
	}
	if !strings.Contains(r.Render(), "Figure 11") {
		t.Error("render title missing")
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("query sweep is slow")
	}
	r := fig12(tinyOpts())
	pinModelled(t, "fig12", r)
	get := func(series string, kind orgKind) float64 {
		for _, c := range r.Cells {
			if c.Series == series && c.Org == kind {
				return c.Summary.MSPer4KB()
			}
		}
		t.Fatalf("missing cell %s/%s", series, kind)
		return 0
	}
	// Paper: secondary and cluster are close for point queries.
	for _, series := range []string{"A-1", "B-1", "C-1"} {
		sec, clus := get(series, orgSecondary), get(series, orgCluster)
		ratio := sec / clus
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: sec/cluster point-query ratio %.2f outside [0.5,2]", series, ratio)
		}
	}
	// Paper: the primary organization is relatively worst for the largest
	// objects (C-1) because of the extra overflow accesses.
	relPrimA := get("A-1", orgPrimary) / get("A-1", orgSecondary)
	relPrimC := get("C-1", orgPrimary) / get("C-1", orgSecondary)
	if relPrimC < relPrimA {
		t.Errorf("primary relative cost should grow with object size: A-1 %.2f, C-1 %.2f", relPrimA, relPrimC)
	}
}

func TestFig14Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("join sweep is slow")
	}
	r := fig14(tinyOpts())
	pinModelled(t, "fig14", r)
	get := func(v joinVersion, col string, buf int) float64 {
		for _, c := range r.Cells {
			if c.Version == v && c.Column == col && c.BufferPages == buf {
				return c.IOSec
			}
		}
		t.Fatalf("missing cell %c/%s/%d", v, col, buf)
		return 0
	}
	for _, v := range []joinVersion{versionA, versionB} {
		// At the paper's larger buffers the cluster organization must win
		// clearly (paper: up to 4.9x/9.5x vs secondary).
		sec, clus := get(v, string(orgSecondary), 6400), get(v, string(orgCluster), 6400)
		if sec/clus < 2 {
			t.Errorf("version %c: cluster speedup only %.2fx at 6400 pages", v, sec/clus)
		}
		// More buffer never hurts the cluster organization much.
		if small, large := get(v, string(orgCluster), 200), get(v, string(orgCluster), 6400); large > small*1.05 {
			t.Errorf("version %c: cluster join got slower with more buffer (%.1f -> %.1f)", v, small, large)
		}
	}
	// Version b moves much more data than version a.
	if a, b := get(versionA, string(orgSecondary), 1600), get(versionB, string(orgSecondary), 1600); b < 2*a {
		t.Errorf("version b (%.1f s) should be far dearer than version a (%.1f s)", b, a)
	}
	if !strings.Contains(r.Render(), "Figure 14") {
		t.Error("render title missing")
	}
}

func TestFig16Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("join sweep is slow")
	}
	r := fig16(tinyOpts())
	pinModelled(t, "fig16", r)
	get := func(v joinVersion, col string, buf int) joinCell {
		for _, c := range r.Cells {
			if c.Version == v && c.Column == col && c.BufferPages == buf {
				return c
			}
		}
		t.Fatalf("missing cell %c/%s/%d", v, col, buf)
		return joinCell{}
	}
	for _, v := range []joinVersion{versionA, versionB} {
		for _, buf := range joinBufferSizes {
			complete := get(v, "complete", buf)
			read := get(v, "read", buf)
			vector := get(v, "vector read", buf)
			// No technique may beat the theoretical optimum.
			for _, c := range []joinCell{complete, read, vector} {
				if c.IOSec < c.OptSec-1e-9 {
					t.Errorf("version %c buf %d: %s %.2f s below optimum %.2f s",
						v, buf, c.Column, c.IOSec, c.OptSec)
				}
			}
			// The SLM techniques must not lose badly to complete reads.
			if read.IOSec > complete.IOSec*1.15 {
				t.Errorf("version %c buf %d: read %.1f s far above complete %.1f s",
					v, buf, read.IOSec, complete.IOSec)
			}
		}
		// At the largest buffer the cost approaches the optimum
		// ("the maximum transfer rate of the disk is reached").
		big := get(v, "read", 6400)
		if big.IOSec > 2.5*big.OptSec {
			t.Errorf("version %c: read at 6400 pages %.1f s too far from optimum %.1f s",
				v, big.IOSec, big.OptSec)
		}
	}
}

func TestFig17Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("complete join is slow")
	}
	r := fig17(tinyOpts())
	pinModelled(t, "fig17", r)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKey := map[string]fig17Row{}
	for _, row := range r.Rows {
		byKey[string(row.Version)+string(row.Org)] = row
	}
	for _, v := range []string{"a", "b"} {
		sec := byKey[v+string(orgSecondary)]
		clus := byKey[v+string(orgCluster)]
		// Identical refinement work and results.
		if sec.ExactSec != clus.ExactSec || sec.ResultPairs != clus.ResultPairs {
			t.Errorf("version %s: refinement differs between organizations", v)
		}
		// The object transfer collapses under the cluster organization
		// and the complete join is several times faster (paper: 3.9/4.3x).
		if sec.TransferSec/clus.TransferSec < 1.5 {
			t.Errorf("version %s: transfer speedup only %.2fx", v, sec.TransferSec/clus.TransferSec)
		}
		if sec.TotalSec() <= clus.TotalSec() {
			t.Errorf("version %s: complete cluster join not faster (%.1f vs %.1f)",
				v, clus.TotalSec(), sec.TotalSec())
		}
	}
	if !strings.Contains(r.Render(), "Figure 17") {
		t.Error("render title missing")
	}
}

func TestBuildRejectsUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 2048})
	build(orgKind("nonsense"), ds, spatialcluster.StoreConfig{BufferPages: 64})
}

func TestQuerySummaryHelpers(t *testing.T) {
	q := querySummary{Queries: 4, Answers: 8, CandidateBytes: 8192, TotalMS: 30}
	if q.avgAnswers() != 2 {
		t.Fatalf("avgAnswers = %g", q.avgAnswers())
	}
	if q.MSPer4KB() != 15 {
		t.Fatalf("MSPer4KB = %g", q.MSPer4KB())
	}
	var zero querySummary
	if zero.MSPer4KB() != 0 || zero.avgAnswers() != 0 {
		t.Fatal("zero summary must normalize to 0")
	}
}

func TestRunWindowQueriesAgainstBrute(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 3})
	b := build(orgCluster, ds, spatialcluster.StoreConfig{BufferPages: 128})
	ws := ds.Windows(0.01, 10, 9)
	sum := runWindowQueries(b.Org, ws, store.TechComplete)
	want := 0
	for _, w := range ws {
		for i, o := range ds.Objects {
			if ds.MBRs[i].Intersects(w) && o.Geom.IntersectsRect(w) {
				want++
			}
		}
	}
	if sum.Answers != want {
		t.Fatalf("answers = %d, want %d", sum.Answers, want)
	}
}

func TestTableRender(t *testing.T) {
	tab := table{Title: "T", Header: []string{"a", "bb"}, Caption: "c"}
	tab.addRow("1", "2")
	out := tab.render()
	for _, want := range []string{"T", "a", "bb", "1", "2", "c"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if f0(1.4) != "1" || f1(1.44) != "1.4" || f2(1.444) != "1.44" {
		t.Error("float formatting helpers broken")
	}
}

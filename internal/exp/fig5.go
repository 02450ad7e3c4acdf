package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
)

// fig5Row reports construction cost and storage utilization of one
// organization over one series (paper Figures 5 and 6 share the builds).
type fig5Row struct {
	Series          string
	Org             orgKind
	ConstructionSec float64
	OccupiedPages   int
}

// fig56Result holds Figures 5 (construction I/O) and 6 (storage
// utilization).
type fig56Result struct {
	Scale int
	Rows  []fig5Row
}

// fig5And6 builds all three organizations over all six test series with
// unsorted input and measures construction I/O time (Figure 5) and occupied
// pages (Figure 6).
func fig5And6(o Options) fig56Result {
	o = o.WithDefaults()
	res := fig56Result{Scale: o.Scale}
	for _, spec := range allSpecs(o) {
		ds := datagen.Generate(spec)
		for _, kind := range allOrgs {
			b := build(kind, ds, o.storeConfig())
			res.Rows = append(res.Rows, fig5Row{
				Series:          spec.Name(),
				Org:             kind,
				ConstructionSec: b.ConstructionSec,
				OccupiedPages:   b.Stats.OccupiedPages,
			})
			o.Progress("fig5/6: built %s %s (%.0f s I/O, %d pages, wall %v)",
				spec.Name(), kind, b.ConstructionSec, b.Stats.OccupiedPages, b.WallClock)
		}
	}
	return res
}

// row lookup helper.
func (r fig56Result) row(series string, kind orgKind) fig5Row {
	for _, row := range r.Rows {
		if row.Series == series && row.Org == kind {
			return row
		}
	}
	panic(fmt.Sprintf("exp: missing row %s/%s", series, kind))
}

// seriesNames lists the distinct series in row order.
func (r fig56Result) seriesNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Series] {
			seen[row.Series] = true
			names = append(names, row.Series)
		}
	}
	return names
}

// Render formats both figures, one after the other.
func (r fig56Result) Render() string { return r.renderFig5() + "\n" + r.renderFig6() }

// renderFig5 formats the construction costs like Figure 5.
func (r fig56Result) renderFig5() string {
	t := table{
		Title:  fmt.Sprintf("Figure 5: I/O-cost for constructing the organization models (sec, scale 1/%d)", r.Scale),
		Header: []string{"series", string(orgSecondary), string(orgPrimary), string(orgCluster)},
	}
	for _, s := range r.seriesNames() {
		t.addRow(s,
			f0(r.row(s, orgSecondary).ConstructionSec),
			f0(r.row(s, orgPrimary).ConstructionSec),
			f0(r.row(s, orgCluster).ConstructionSec),
		)
	}
	t.Caption = "Paper shape: cluster < secondary; primary most expensive and strongly size-dependent."
	return t.render()
}

// renderFig6 formats the storage utilization like Figure 6.
func (r fig56Result) renderFig6() string {
	t := table{
		Title:  fmt.Sprintf("Figure 6: storage utilization (occupied pages, scale 1/%d)", r.Scale),
		Header: []string{"series", string(orgSecondary), string(orgPrimary), string(orgCluster)},
	}
	for _, s := range r.seriesNames() {
		t.addRow(s,
			fmt.Sprintf("%d", r.row(s, orgSecondary).OccupiedPages),
			fmt.Sprintf("%d", r.row(s, orgPrimary).OccupiedPages),
			fmt.Sprintf("%d", r.row(s, orgCluster).OccupiedPages),
		)
	}
	t.Caption = "Paper shape: secondary best; cluster worst (underfilled Smax units) until the buddy system is applied (Figure 7)."
	return t.render()
}

// fig7Row reports the restricted buddy system's effect (paper Figure 7).
type fig7Row struct {
	Series string

	PagesFixed int // cluster organization, fixed Smax units
	PagesBuddy int // with the restricted buddy system (3 sizes)
	PagesPrim  int // primary organization, for reference

	ConstructionFixedSec float64
	ConstructionBuddySec float64
}

// fig7Result holds Figure 7.
type fig7Result struct {
	Scale int
	Rows  []fig7Row
}

// fig7 measures storage utilization and construction cost of the cluster
// organization with and without the restricted buddy system on the map 1
// series.
func fig7(o Options) fig7Result {
	o = o.WithDefaults()
	res := fig7Result{Scale: o.Scale}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesB, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		buddyCfg := o.storeConfig()
		buddyCfg.BuddySizes = 3
		fixed := build(orgCluster, ds, o.storeConfig())
		buddy := build(orgCluster, ds, buddyCfg)
		prim := build(orgPrimary, ds, o.storeConfig())
		res.Rows = append(res.Rows, fig7Row{
			Series:               spec.Name(),
			PagesFixed:           fixed.Stats.OccupiedPages,
			PagesBuddy:           buddy.Stats.OccupiedPages,
			PagesPrim:            prim.Stats.OccupiedPages,
			ConstructionFixedSec: fixed.ConstructionSec,
			ConstructionBuddySec: buddy.ConstructionSec,
		})
		o.Progress("fig7: %s fixed=%d buddy=%d prim=%d pages", spec.Name(),
			fixed.Stats.OccupiedPages, buddy.Stats.OccupiedPages, prim.Stats.OccupiedPages)
	}
	return res
}

// Render formats Figure 7.
func (r fig7Result) Render() string {
	t := table{
		Title: fmt.Sprintf("Figure 7: restricted buddy system (3 sizes), map 1 (scale 1/%d)", r.Scale),
		Header: []string{"series", "pages fixed", "pages buddy", "pages prim. org.",
			"constr. fixed (s)", "constr. buddy (s)"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Series,
			fmt.Sprintf("%d", row.PagesFixed),
			fmt.Sprintf("%d", row.PagesBuddy),
			fmt.Sprintf("%d", row.PagesPrim),
			f0(row.ConstructionFixedSec),
			f0(row.ConstructionBuddySec),
		)
	}
	t.Caption = "Paper shape: buddy utilization ≈ primary organization; construction only slightly dearer than fixed units."
	return t.render()
}

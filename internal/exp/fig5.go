package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
)

// Fig5Row reports construction cost and storage utilization of one
// organization over one series (paper Figures 5 and 6 share the builds).
type Fig5Row struct {
	Series          string
	Org             OrgKind
	ConstructionSec float64
	OccupiedPages   int
}

// Fig56Result holds Figures 5 (construction I/O) and 6 (storage
// utilization).
type Fig56Result struct {
	Scale int
	Rows  []Fig5Row
}

// Fig5And6 builds all three organizations over all six test series with
// unsorted input and measures construction I/O time (Figure 5) and occupied
// pages (Figure 6).
func Fig5And6(o Options) Fig56Result {
	o = o.WithDefaults()
	res := Fig56Result{Scale: o.Scale}
	for _, spec := range allSpecs(o) {
		ds := datagen.Generate(spec)
		for _, kind := range AllOrgs {
			b := Build(kind, ds, o.BuildBufPages)
			res.Rows = append(res.Rows, Fig5Row{
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
func (r Fig56Result) row(series string, kind OrgKind) Fig5Row {
	for _, row := range r.Rows {
		if row.Series == series && row.Org == kind {
			return row
		}
	}
	panic(fmt.Sprintf("exp: missing row %s/%s", series, kind))
}

// seriesNames lists the distinct series in row order.
func (r Fig56Result) seriesNames() []string {
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
func (r Fig56Result) Render() string { return r.renderFig5() + "\n" + r.renderFig6() }

// renderFig5 formats the construction costs like Figure 5.
func (r Fig56Result) renderFig5() string {
	t := table{
		Title:  fmt.Sprintf("Figure 5: I/O-cost for constructing the organization models (sec, scale 1/%d)", r.Scale),
		Header: []string{"series", string(OrgSecondary), string(OrgPrimary), string(OrgCluster)},
	}
	for _, s := range r.seriesNames() {
		t.addRow(s,
			f0(r.row(s, OrgSecondary).ConstructionSec),
			f0(r.row(s, OrgPrimary).ConstructionSec),
			f0(r.row(s, OrgCluster).ConstructionSec),
		)
	}
	t.Caption = "Paper shape: cluster < secondary; primary most expensive and strongly size-dependent."
	return t.render()
}

// renderFig6 formats the storage utilization like Figure 6.
func (r Fig56Result) renderFig6() string {
	t := table{
		Title:  fmt.Sprintf("Figure 6: storage utilization (occupied pages, scale 1/%d)", r.Scale),
		Header: []string{"series", string(OrgSecondary), string(OrgPrimary), string(OrgCluster)},
	}
	for _, s := range r.seriesNames() {
		t.addRow(s,
			fmt.Sprintf("%d", r.row(s, OrgSecondary).OccupiedPages),
			fmt.Sprintf("%d", r.row(s, OrgPrimary).OccupiedPages),
			fmt.Sprintf("%d", r.row(s, OrgCluster).OccupiedPages),
		)
	}
	t.Caption = "Paper shape: secondary best; cluster worst (underfilled Smax units) until the buddy system is applied (Figure 7)."
	return t.render()
}

// Fig7Row reports the restricted buddy system's effect (paper Figure 7).
type Fig7Row struct {
	Series string

	PagesFixed int // cluster organization, fixed Smax units
	PagesBuddy int // with the restricted buddy system (3 sizes)
	PagesPrim  int // primary organization, for reference

	ConstructionFixedSec float64
	ConstructionBuddySec float64
}

// Fig7Result holds Figure 7.
type Fig7Result struct {
	Scale int
	Rows  []Fig7Row
}

// Fig7 measures storage utilization and construction cost of the cluster
// organization with and without the restricted buddy system on the map 1
// series.
func Fig7(o Options) Fig7Result {
	o = o.WithDefaults()
	res := Fig7Result{Scale: o.Scale}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesB, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		fixed := Build(OrgCluster, ds, o.BuildBufPages)
		buddy := Build(OrgClusterBuddy, ds, o.BuildBufPages)
		prim := Build(OrgPrimary, ds, o.BuildBufPages)
		res.Rows = append(res.Rows, Fig7Row{
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
func (r Fig7Result) Render() string {
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

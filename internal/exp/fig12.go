package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
)

// fig12Cell is one point-query measurement.
type fig12Cell struct {
	Series  string
	Org     orgKind
	Summary querySummary
}

// fig12Result holds Figure 12 (point queries).
type fig12Result struct {
	Scale int
	Cells []fig12Cell
}

// fig12 runs the point-query comparison of section 5.5: 678 point queries
// (the window centers of section 5.4) on A-1, B-1 and C-1 for all three
// organizations, normalized to msec/4KB.
func fig12(o Options) fig12Result {
	o = o.WithDefaults()
	res := fig12Result{Scale: o.Scale}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesB, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		pts := ds.Points(o.Queries, o.Seed+101)
		for _, kind := range allOrgs {
			b := build(kind, ds, o.storeConfig())
			sum := runPointQueries(b.Org, pts)
			res.Cells = append(res.Cells, fig12Cell{Series: spec.Name(), Org: kind, Summary: sum})
			o.Progress("fig12: %s %s: %.1f ms/4KB", spec.Name(), kind, sum.MSPer4KB())
		}
	}
	return res
}

// Render formats Figure 12.
func (r fig12Result) Render() string {
	t := table{
		Title:  fmt.Sprintf("Figure 12: point queries (msec/4KB, scale 1/%d)", r.Scale),
		Header: []string{"series", string(orgSecondary), string(orgPrimary), string(orgCluster)},
	}
	bySeries := map[string]map[orgKind]float64{}
	var order []string
	for _, c := range r.Cells {
		if bySeries[c.Series] == nil {
			bySeries[c.Series] = map[orgKind]float64{}
			order = append(order, c.Series)
		}
		bySeries[c.Series][c.Org] = c.Summary.MSPer4KB()
	}
	for _, s := range order {
		t.addRow(s,
			f1(bySeries[s][orgSecondary]),
			f1(bySeries[s][orgPrimary]),
			f1(bySeries[s][orgCluster]),
		)
	}
	t.Caption = "Paper shape: secondary ≈ cluster; primary best for the smallest objects (A-1) and worst for the largest (C-1)."
	return t.render()
}

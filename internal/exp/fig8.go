package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// Fig8Cell is one measurement of Figures 8 and 10: an organization (or
// technique) over one window area.
type Fig8Cell struct {
	Series   string
	Column   string // organization or technique name
	AreaFrac float64
	Summary  QuerySummary
}

// Fig8Result holds Figure 8 (window queries, organization comparison).
type Fig8Result struct {
	Scale int
	Cells []Fig8Cell
}

// Fig8 runs the window query comparison of the three organization models on
// A-1 and C-1: 678 queries per window size, window areas 0.001%–10% of the
// data space, I/O normalized to msec/4KB. The cluster organization uses the
// simplest technique (complete cluster unit reads), as in the paper.
func Fig8(o Options) Fig8Result {
	o = o.WithDefaults()
	res := Fig8Result{Scale: o.Scale}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		for _, kind := range AllOrgs {
			b := Build(kind, ds, o.BuildBufPages)
			for _, area := range datagen.WindowAreas {
				ws := ds.Windows(area, o.Queries, o.Seed+int64(area*1e7))
				sum := RunWindowQueries(b.Org, ws, store.TechComplete)
				res.Cells = append(res.Cells, Fig8Cell{
					Series: spec.Name(), Column: string(kind),
					AreaFrac: area, Summary: sum,
				})
				o.Progress("fig8: %s %s area=%s: %.1f ms/4KB (avg answers %.1f)",
					spec.Name(), kind, datagen.WindowAreaLabel(area),
					sum.MSPer4KB(), sum.avgAnswers())
			}
		}
	}
	return res
}

// renderQueryMatrix renders cells as series × (column, area) tables.
func renderQueryMatrix(title string, cells []Fig8Cell, caption string) string {
	// Group by series.
	bySeries := map[string][]Fig8Cell{}
	var seriesOrder []string
	for _, c := range cells {
		if _, ok := bySeries[c.Series]; !ok {
			seriesOrder = append(seriesOrder, c.Series)
		}
		bySeries[c.Series] = append(bySeries[c.Series], c)
	}
	out := ""
	for _, s := range seriesOrder {
		group := bySeries[s]
		var cols []string
		seenCols := map[string]bool{}
		var areas []float64
		seenAreas := map[float64]bool{}
		for _, c := range group {
			if !seenCols[c.Column] {
				seenCols[c.Column] = true
				cols = append(cols, c.Column)
			}
			if !seenAreas[c.AreaFrac] {
				seenAreas[c.AreaFrac] = true
				areas = append(areas, c.AreaFrac)
			}
		}
		t := table{
			Title:  fmt.Sprintf("%s — %s (msec/4KB)", title, s),
			Header: append([]string{"window area"}, cols...),
		}
		for _, a := range areas {
			row := []string{datagen.WindowAreaLabel(a)}
			for _, col := range cols {
				val := "-"
				for _, c := range group {
					if c.AreaFrac == a && c.Column == col {
						val = f1(c.Summary.MSPer4KB())
					}
				}
				row = append(row, val)
			}
			t.addRow(row...)
		}
		t.Caption = caption
		out += t.render() + "\n"
	}
	return out
}

// Render formats Figure 8.
func (r Fig8Result) Render() string {
	return renderQueryMatrix(
		fmt.Sprintf("Figure 8: window queries, organization models (scale 1/%d)", r.Scale),
		r.Cells,
		"Paper shape: cluster org. wins, increasingly with window size (speed up to 20x on A-1, 12.5x on C-1 vs sec. org.).")
}

// Fig10Result holds Figure 10 (window query techniques on the cluster
// organization).
type Fig10Result struct {
	Scale int
	Cells []Fig8Cell
}

// Fig10 compares the query techniques of section 5.4 — complete, geometric
// threshold, SLM and the theoretical optimum — on the cluster organization
// for A-1 and C-1.
func Fig10(o Options) Fig10Result {
	o = o.WithDefaults()
	res := Fig10Result{Scale: o.Scale}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		b := Build(OrgCluster, ds, o.BuildBufPages)
		c := b.Org.(*store.Cluster)
		for _, area := range datagen.WindowAreas {
			ws := ds.Windows(area, o.Queries, o.Seed+int64(area*1e7))
			for _, tech := range []store.Technique{store.TechComplete, store.TechThreshold, store.TechSLM} {
				sum := RunWindowQueries(b.Org, ws, tech)
				res.Cells = append(res.Cells, Fig8Cell{
					Series: spec.Name(), Column: tech.String(),
					AreaFrac: area, Summary: sum,
				})
			}
			opt := runWindowOptimum(c, ws)
			res.Cells = append(res.Cells, Fig8Cell{
				Series: spec.Name(), Column: "opt.",
				AreaFrac: area, Summary: opt,
			})
			o.Progress("fig10: %s area=%s done", spec.Name(), datagen.WindowAreaLabel(area))
		}
	}
	return res
}

// Render formats Figure 10.
func (r Fig10Result) Render() string {
	return renderQueryMatrix(
		fmt.Sprintf("Figure 10: window query techniques, cluster org. (scale 1/%d)", r.Scale),
		r.Cells,
		"Paper shape: techniques differ only for small windows; SLM best (~27% saved on C-1 0.001%), threshold ~15%, opt ~35%.")
}

package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// queryCell is one measurement of Figures 8 and 10: an organization (or
// technique) over one window area.
type queryCell struct {
	Series   string
	Column   string // organization or technique name
	AreaFrac float64
	Summary  querySummary
}

// queryMatrix holds Figure 8 (window queries, organization comparison) or
// Figure 10 (window query techniques on the cluster organization): its cells
// and the title and caption they are rendered under.
type queryMatrix struct {
	Title, Caption string
	Cells          []queryCell
}

// fig8 runs the window query comparison of the three organization models on
// A-1 and C-1: 678 queries per window size, window areas 0.001%–10% of the
// data space, I/O normalized to msec/4KB. The cluster organization uses the
// simplest technique (complete cluster unit reads), as in the paper.
func fig8(o Options) queryMatrix {
	o = o.WithDefaults()
	res := queryMatrix{
		Title:   fmt.Sprintf("Figure 8: window queries, organization models (scale 1/%d)", o.Scale),
		Caption: "Paper shape: cluster org. wins, increasingly with window size (speed up to 20x on A-1, 12.5x on C-1 vs sec. org.).",
	}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		for _, kind := range allOrgs {
			b := build(kind, ds, o.storeConfig())
			for _, area := range datagen.WindowAreas {
				ws := ds.Windows(area, o.Queries, o.Seed+int64(area*1e7))
				sum := runWindowQueries(b.Org, ws, store.TechComplete)
				res.Cells = append(res.Cells, queryCell{
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

// Render formats the cells as series × (column, area) tables.
func (r queryMatrix) Render() string {
	// Group by series.
	bySeries := map[string][]queryCell{}
	var seriesOrder []string
	for _, c := range r.Cells {
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
			Title:  fmt.Sprintf("%s — %s (msec/4KB)", r.Title, s),
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
		t.Caption = r.Caption
		out += t.render() + "\n"
	}
	return out
}

// fig10 compares the query techniques of section 5.4 — complete, geometric
// threshold, SLM and the theoretical optimum — on the cluster organization
// for A-1 and C-1.
func fig10(o Options) queryMatrix {
	o = o.WithDefaults()
	res := queryMatrix{
		Title:   fmt.Sprintf("Figure 10: window query techniques, cluster org. (scale 1/%d)", o.Scale),
		Caption: "Paper shape: techniques differ only for small windows; SLM best (~27% saved on C-1 0.001%), threshold ~15%, opt ~35%.",
	}
	for _, series := range []datagen.Series{datagen.SeriesA, datagen.SeriesC} {
		spec := datagen.Spec{Map: datagen.Map1, Series: series, Scale: o.Scale, Seed: o.Seed}
		ds := datagen.Generate(spec)
		b := build(orgCluster, ds, o.storeConfig())
		c := b.Org.(*store.Cluster)
		for _, area := range datagen.WindowAreas {
			ws := ds.Windows(area, o.Queries, o.Seed+int64(area*1e7))
			for _, tech := range []store.Technique{store.TechComplete, store.TechThreshold, store.TechSLM} {
				sum := runWindowQueries(b.Org, ws, tech)
				res.Cells = append(res.Cells, queryCell{
					Series: spec.Name(), Column: tech.String(),
					AreaFrac: area, Summary: sum,
				})
			}
			opt := runWindowOptimum(c, ws)
			res.Cells = append(res.Cells, queryCell{
				Series: spec.Name(), Column: "opt.",
				AreaFrac: area, Summary: opt,
			})
			o.Progress("fig10: %s area=%s done", spec.Name(), datagen.WindowAreaLabel(area))
		}
	}
	return res
}

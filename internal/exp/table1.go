package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
)

// table1Row describes one test series (paper Table 1).
type table1Row struct {
	Name         string
	Objects      int
	AvgSize      float64 // measured average object size in bytes
	TargetSize   int     // Table 1 target
	TotalMB      float64
	SmaxKB       int
	PaperTotalMB float64
}

// table1Result holds the generated counterpart of paper Table 1.
type table1Result struct {
	Scale int
	Rows  []table1Row
}

// allSpecs enumerates the six test series of Table 1 at the given scale.
func allSpecs(o Options) []datagen.Spec {
	o = o.WithDefaults()
	var specs []datagen.Spec
	for _, m := range []datagen.MapID{datagen.Map1, datagen.Map2} {
		for _, s := range []datagen.Series{datagen.SeriesA, datagen.SeriesB, datagen.SeriesC} {
			specs = append(specs, datagen.Spec{Map: m, Series: s, Scale: o.Scale, Seed: o.Seed})
		}
	}
	return specs
}

// paperTotalMB holds the "total size (in MB)" column of Table 1 for the
// side-by-side comparison in the rendered output.
var paperTotalMB = map[string]float64{
	"A-1": 78.4, "B-1": 156.3, "C-1": 312.1,
	"A-2": 96.1, "B-2": 191.7, "C-2": 382.9,
}

// table1 generates all six datasets and reports their measured
// characteristics next to the paper's targets.
func table1(o Options) table1Result {
	o = o.WithDefaults()
	res := table1Result{Scale: o.Scale}
	for _, spec := range allSpecs(o) {
		ds := datagen.Generate(spec)
		res.Rows = append(res.Rows, table1Row{
			Name:         spec.Name(),
			Objects:      len(ds.Objects),
			AvgSize:      ds.MeasuredAvgSize(),
			TargetSize:   spec.AvgObjectSize(),
			TotalMB:      float64(ds.TotalBytes()) / (1 << 20),
			SmaxKB:       spec.SmaxBytes() / 1024,
			PaperTotalMB: paperTotalMB[spec.Name()],
		})
		o.Progress("table1: generated %s", spec.Name())
	}
	return res
}

// Render formats the result like Table 1.
func (r table1Result) Render() string {
	t := table{
		Title:  fmt.Sprintf("Table 1: maps and test series (scale 1/%d)", r.Scale),
		Header: []string{"series-map", "objects", "avg size (B)", "target (B)", "total (MB)", "paper total/scale (MB)", "Smax (KB)"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Name,
			fmt.Sprintf("%d", row.Objects),
			f0(row.AvgSize),
			fmt.Sprintf("%d", row.TargetSize),
			f1(row.TotalMB),
			f1(row.PaperTotalMB/float64(r.Scale)),
			fmt.Sprintf("%d", row.SmaxKB),
		)
	}
	t.Caption = "Paper targets: Table 1 of Brinkhoff & Kriegel (VLDB 1994)."
	return t.render()
}

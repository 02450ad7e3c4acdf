package exp

import (
	"fmt"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/join"
	"spatialcluster/internal/store"
)

// joinVersion selects the MBR-extension series of the join experiments
// (section 6.1).
type joinVersion byte

// Version a keeps the object MBRs; version b enlarges them for a roughly
// 14x larger candidate set.
const (
	versionA joinVersion = 'a'
	versionB joinVersion = 'b'
)

func (v joinVersion) mbrScale() float64 {
	if v == versionB {
		return mbrScaleVersionB
	}
	return mbrScaleVersionA
}

// joinInputs generates and builds both sides of the C-1 ⋈ C-2 join for one
// organization kind.
func joinInputs(o Options, kind orgKind, v joinVersion) (store.Organization, store.Organization) {
	specR := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesC, Scale: o.Scale,
		Seed: o.Seed, MBRScale: v.mbrScale()}
	specS := datagen.Spec{Map: datagen.Map2, Series: datagen.SeriesC, Scale: o.Scale,
		Seed: o.Seed, MBRScale: v.mbrScale()}
	r := build(kind, datagen.Generate(specR), o.storeConfig())
	s := build(kind, datagen.Generate(specS), o.storeConfig())
	return r.Org, s.Org
}

// joinCell is one join measurement.
type joinCell struct {
	Version     joinVersion
	Column      string // organization or technique
	BufferPages int    // full-scale label
	IOSec       float64
	MBRPairs    int
	OptSec      float64 // only for Figure 16 cells
}

// joinMatrix holds Figure 14 (join I/O across organizations and buffer
// sizes) or Figure 16 (join techniques on the cluster organization, with
// the buffer-independent optimum as a last row): its cells and the title
// and caption they are rendered under.
type joinMatrix struct {
	Title, Caption string
	WithOpt        bool
	Cells          []joinCell
}

// fig14 runs the spatial join C-1 ⋈ C-2 in versions a and b for all three
// organizations across the paper's buffer sizes (divided by the scale to
// preserve the buffer-to-data ratio). The cluster organization reads
// complete cluster units, as in the paper.
func fig14(o Options) joinMatrix {
	o = o.WithDefaults()
	res := joinMatrix{
		Title:   fmt.Sprintf("Figure 14: spatial join, organization models (scale 1/%d, buffers scaled)", o.Scale),
		Caption: "Paper shape: cluster org. wins at all buffer sizes (up to 4.9x/9.5x vs sec. org. in versions a/b).",
	}
	for _, v := range []joinVersion{versionA, versionB} {
		for _, kind := range allOrgs {
			orgR, orgS := joinInputs(o, kind, v)
			for _, buf := range joinBufferSizes {
				jr := join.Run(orgR, orgS, join.Config{
					BufferPages:   o.scaledBuffer(buf),
					Technique:     store.TechComplete,
					SkipExactTest: true,
				})
				res.Cells = append(res.Cells, joinCell{
					Version: v, Column: string(kind), BufferPages: buf,
					IOSec:    jr.IOTimeMS(disk.DefaultParams()) / 1000,
					MBRPairs: jr.MBRPairs,
				})
				o.Progress("fig14: C-1/2 %c %s buf=%d: %.1f s I/O (%d pairs)",
					v, kind, buf, jr.IOTimeMS(disk.DefaultParams())/1000, jr.MBRPairs)
			}
		}
	}
	return res
}

// Render formats the cells as version × (column, buffer) tables.
func (r joinMatrix) Render() string {
	out := ""
	for _, v := range []joinVersion{versionA, versionB} {
		var cols []string
		seen := map[string]bool{}
		for _, c := range r.Cells {
			if c.Version == v && !seen[c.Column] {
				seen[c.Column] = true
				cols = append(cols, c.Column)
			}
		}
		if len(cols) == 0 {
			continue
		}
		t := table{
			Title:  fmt.Sprintf("%s — C-1/2 %c (I/O sec)", r.Title, v),
			Header: append([]string{"buffer (pages)"}, cols...),
		}
		for _, buf := range joinBufferSizes {
			row := []string{fmt.Sprintf("%d", buf)}
			for _, col := range cols {
				val := "-"
				for _, c := range r.Cells {
					if c.Version == v && c.BufferPages == buf && c.Column == col {
						val = f1(c.IOSec)
					}
				}
				row = append(row, val)
			}
			t.addRow(row...)
		}
		if r.WithOpt {
			// Optimum row (buffer-independent).
			row := []string{"opt."}
			for _, col := range cols {
				val := "-"
				for _, c := range r.Cells {
					if c.Version == v && c.Column == col && c.OptSec > 0 {
						val = f1(c.OptSec)
						break
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

// fig16 compares the cluster-read techniques during join processing:
// complete units, SLM with vector read, SLM with normal read, and the
// theoretical optimum (section 6.2).
func fig16(o Options) joinMatrix {
	o = o.WithDefaults()
	res := joinMatrix{
		Title:   fmt.Sprintf("Figure 16: join techniques, cluster org. (scale 1/%d, buffers scaled)", o.Scale),
		Caption: "Paper shape: read > vector read; both beat complete only for small buffers; >=1600 pages near the optimum.",
		WithOpt: true,
	}
	techs := []struct {
		name string
		tech store.Technique
	}{
		{"complete", store.TechComplete},
		{"vector read", store.TechSLMVector},
		{"read", store.TechSLM},
	}
	for _, v := range []joinVersion{versionA, versionB} {
		orgR, orgS := joinInputs(o, orgCluster, v)
		for _, tc := range techs {
			for _, buf := range joinBufferSizes {
				jr := join.Run(orgR, orgS, join.Config{
					BufferPages:   o.scaledBuffer(buf),
					Technique:     tc.tech,
					SkipExactTest: true,
				})
				cell := joinCell{
					Version: v, Column: tc.name, BufferPages: buf,
					IOSec:  jr.IOTimeMS(disk.DefaultParams()) / 1000,
					OptSec: (jr.MBRJoinCost.TimeMS(disk.DefaultParams()) + jr.OptimumMS) / 1000,
				}
				res.Cells = append(res.Cells, cell)
				o.Progress("fig16: C-1/2 %c %s buf=%d: %.1f s (opt %.1f s)",
					v, tc.name, buf, cell.IOSec, cell.OptSec)
			}
		}
	}
	return res
}

// fig17Row is one bar group of Figure 17: the full intersection join cost
// split into MBR join, object transfer and exact geometry test.
type fig17Row struct {
	Version     joinVersion
	Org         orgKind
	MBRJoinSec  float64
	TransferSec float64
	ExactSec    float64
	ResultPairs int
}

// TotalSec returns the complete join time.
func (r fig17Row) TotalSec() float64 { return r.MBRJoinSec + r.TransferSec + r.ExactSec }

// fig17Result holds Figure 17.
type fig17Result struct {
	Scale int
	Rows  []fig17Row
}

// fig17 measures the complete intersection join C-1 ⋈ C-2 (versions a and
// b) for the secondary and the cluster organization with a 1,600-page
// buffer: MBR join I/O, object transfer I/O, and the exact geometry test at
// 0.75 ms per candidate pair (section 6.3).
func fig17(o Options) fig17Result {
	o = o.WithDefaults()
	res := fig17Result{Scale: o.Scale}
	p := disk.DefaultParams()
	for _, v := range []joinVersion{versionA, versionB} {
		for _, kind := range []orgKind{orgSecondary, orgCluster} {
			orgR, orgS := joinInputs(o, kind, v)
			jr := join.Run(orgR, orgS, join.Config{
				BufferPages: o.scaledBuffer(1600),
				Technique:   store.TechComplete,
			})
			res.Rows = append(res.Rows, fig17Row{
				Version:     v,
				Org:         kind,
				MBRJoinSec:  jr.MBRJoinCost.TimeMS(p) / 1000,
				TransferSec: jr.TransferCost.TimeMS(p) / 1000,
				ExactSec:    jr.ExactTestMS / 1000,
				ResultPairs: jr.ResultPairs,
			})
			o.Progress("fig17: C-1/2 %c %s done", v, kind)
		}
	}
	return res
}

// Render formats Figure 17.
func (r fig17Result) Render() string {
	t := table{
		Title: fmt.Sprintf("Figure 17: complete intersection join C-1/2, buffer 1600 pages (scale 1/%d)", r.Scale),
		Header: []string{"version", "organization", "MBR-join (s)", "obj. transfer (s)",
			"exact test (s)", "total (s)", "result pairs"},
	}
	for _, row := range r.Rows {
		t.addRow(string(row.Version), string(row.Org),
			f1(row.MBRJoinSec), f1(row.TransferSec), f1(row.ExactSec),
			f1(row.TotalSec()), fmt.Sprintf("%d", row.ResultPairs))
	}
	t.Caption = "Paper shape: transfer dominates the sec. org. and collapses under the cluster org.; complete join sped up ~3.9x (a) / 4.3x (b)."
	return t.render()
}

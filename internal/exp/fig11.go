package exp

import (
	"fmt"
	"math"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/store"
)

// fig11ClusterSizes are the Smax values (in pages) swept by the cluster-size
// adaptation experiment of section 5.4.4. The paper's default for B-1 is 40
// pages (160 KB).
var fig11ClusterSizes = []int{4, 8, 20, 40, 80, 160}

// fig11Row reports the average performance gain (in percent) achievable by
// adapting the cluster size to the query size, for one technique.
type fig11Row struct {
	Technique string
	// GainFactor10 and GainFactor100 are the mean gains when the window
	// area changes by one or two decades (the paper's "factor 10" and
	// "factor 100" bars).
	GainFactor10  float64
	GainFactor100 float64
	// GainSmallToLarge is the paper's "0.001 -> 0.1" bar: queries tuned
	// for 0.001% windows, then run at 0.1%.
	GainSmallToLarge float64
}

// fig11Result holds Figure 11.
type fig11Result struct {
	Scale int
	Rows  []fig11Row
	// BestSize[tech][areaIdx] records the best cluster size (pages) per
	// window area, for inspection.
	BestSize map[string][]int
}

// fig11 rebuilds the cluster organization of B-1 with varying maximum
// cluster sizes, measures each window-area workload under every size, and
// derives the gain an adaptive cluster size would deliver over a size tuned
// for a window area 10× or 100× smaller or larger (section 5.4.4, after
// [DS93]).
func fig11(o Options) fig11Result {
	o = o.WithDefaults()
	spec := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesB, Scale: o.Scale, Seed: o.Seed}
	ds := datagen.Generate(spec)
	techs := []store.Technique{store.TechComplete, store.TechThreshold, store.TechSLM}
	areas := datagen.WindowAreas

	// cost[t][s][a]: normalized cost of technique t with cluster size s on
	// window area a.
	cost := make([][][]float64, len(techs))
	for t := range cost {
		cost[t] = make([][]float64, len(fig11ClusterSizes))
		for s := range cost[t] {
			cost[t][s] = make([]float64, len(areas))
		}
	}
	for s, pages := range fig11ClusterSizes {
		cfg := o.storeConfig()
		cfg.SmaxBytes = pages * 4096
		b := build(orgCluster, ds, cfg)
		for a, area := range areas {
			ws := ds.Windows(area, o.Queries, o.Seed+int64(area*1e7))
			for t, tech := range techs {
				cost[t][s][a] = runWindowQueries(b.Org, ws, tech).MSPer4KB()
			}
		}
		o.Progress("fig11: cluster size %d pages measured", pages)
	}

	res := fig11Result{Scale: o.Scale, BestSize: map[string][]int{}}
	for t, tech := range techs {
		best := make([]int, len(areas))
		for a := range areas {
			bi := 0
			for s := range fig11ClusterSizes {
				if cost[t][s][a] < cost[t][bi][a] {
					bi = s
				}
			}
			best[a] = bi
		}
		bestPages := make([]int, len(areas))
		for a, bi := range best {
			bestPages[a] = fig11ClusterSizes[bi]
		}
		res.BestSize[tech.String()] = bestPages

		// gain(a -> a'): run area a' with the size tuned for a, versus the
		// size tuned for a'.
		gain := func(from, to int) float64 {
			c1 := cost[t][best[from]][to] // stale size
			c2 := cost[t][best[to]][to]   // adapted size
			if c1 <= 0 {
				return 0
			}
			return (c1 - c2) / c1 * 100
		}
		avgGain := func(decades int) float64 {
			var sum float64
			var n int
			for a := range areas {
				for _, b2 := range []int{a - decades, a + decades} {
					if b2 < 0 || b2 >= len(areas) {
						continue
					}
					sum += gain(a, b2)
					n++
				}
			}
			if n == 0 {
				return math.NaN()
			}
			return sum / float64(n)
		}
		res.Rows = append(res.Rows, fig11Row{
			Technique:        tech.String(),
			GainFactor10:     avgGain(1),
			GainFactor100:    avgGain(2),
			GainSmallToLarge: gain(0, 2), // 0.001% tuned, 0.1% queried
		})
	}
	return res
}

// Render formats Figure 11.
func (r fig11Result) Render() string {
	t := table{
		Title:  fmt.Sprintf("Figure 11: gains by adapting the cluster size, B-1 (%%, scale 1/%d)", r.Scale),
		Header: []string{"technique", "factor 10", "factor 100", "0.001->0.1"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Technique, f1(row.GainFactor10), f1(row.GainFactor100), f1(row.GainSmallToLarge))
	}
	t.Caption = "Paper shape: complete gains ~6%/23%; threshold ~6.5% and SLM ~11% at factor 100 — adaptation inessential with a good technique, except 0.001->0.1."
	return t.render()
}

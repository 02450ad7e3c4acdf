package datagen

import (
	"math"
	"math/rand"

	"spatialcluster/internal/geom"
)

// NumQueries is the paper's query count per window size (section 5.4: "for
// each test, 678 queries were started").
const NumQueries = 678

// WindowAreas are the query window areas of Figure 8, as fractions of the
// data space area (0.001% to 10%).
var WindowAreas = []float64{0.00001, 0.0001, 0.001, 0.01, 0.1}

// WindowAreaLabel formats an area fraction the way the paper labels it
// (e.g. "0.001%", "10 %").
func WindowAreaLabel(frac float64) string {
	switch frac {
	case 0.00001:
		return "0.001%"
	case 0.0001:
		return "0.01%"
	case 0.001:
		return "0.1%"
	case 0.01:
		return "1%"
	case 0.1:
		return "10%"
	}
	return ""
}

// Windows generates n square query windows of the given area fraction. The
// distribution follows the paper (section 5.4): each window center is a
// point inside the MBR of a randomly chosen stored object, so query load
// follows data density. Windows are clipped to the data space.
func (d *Dataset) Windows(areaFrac float64, n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	space := DataSpace()
	side := math.Sqrt(areaFrac * space.Area())
	out := make([]geom.Rect, n)
	for i := range out {
		c := d.randomMBRPoint(rng)
		w := geom.R(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2)
		out[i] = w.Intersection(space)
	}
	return out
}

// Points generates n point-query locations: the centers of the windows of
// section 5.4 (the paper's point queries reuse the window centers,
// section 5.5).
func (d *Dataset) Points(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = d.randomMBRPoint(rng)
	}
	return out
}

// VertexPoints generates up to n point-query locations on stored objects: for
// each of n objects taken in a seeded random order, the end vertex of one of
// its segments, picked at random. Window centers (Points) mostly fall between
// Map 1's polylines; a vertex always hits the object it came from, so a
// differential over these points compares non-empty answers.
func (d *Dataset) VertexPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, 0, n)
	for _, i := range rng.Perm(len(d.Objects))[:min(n, len(d.Objects))] {
		segs := d.Objects[i].Geom.Segments()
		out = append(out, segs[rng.Intn(len(segs))].B)
	}
	return out
}

// StreamSpec describes a deterministic query stream over a dataset.
type StreamSpec struct {
	N          int     // stream length
	WindowArea float64 // window area as a fraction of the data space
	K          int     // neighbor count of the k-NN queries
	Seed       int64   // drives the whole stream
}

// Stream generates a deterministic query stream over the dataset: window,
// point and k-NN queries mixed 50/25/25, their centers drawn
// data-density-weighted like Windows and Points. Equal (dataset, spec) yield
// identical streams.
func (d *Dataset) Stream(spec StreamSpec) []Op {
	// One windows/points pool each, consumed in order: the per-kind pools
	// keep the stream identical to the established workload generators.
	n := spec.N
	ws := d.Windows(spec.WindowArea, n, spec.Seed+1)
	pts := d.Points(n, spec.Seed+2)

	rng := rand.New(rand.NewSource(spec.Seed ^ 0x6c6f6164)) // "load"
	out := make([]Op, 0, n)
	wi, pi := 0, 0
	for len(out) < n {
		r := rng.Float64()
		switch {
		case r < 0.5:
			out = append(out, Op{Kind: OpWindow, Window: ws[wi]})
			wi++
		case r < 0.75:
			out = append(out, Op{Kind: OpPoint, Point: pts[pi]})
			pi++
		default:
			out = append(out, Op{Kind: OpKNN, Point: pts[pi], K: spec.K})
			pi++
		}
	}
	return out
}

// randomMBRPoint picks a uniform point inside the MBR of a random object.
func (d *Dataset) randomMBRPoint(rng *rand.Rand) geom.Point {
	r := d.MBRs[rng.Intn(len(d.MBRs))]
	return geom.Pt(
		r.MinX+rng.Float64()*r.Width(),
		r.MinY+rng.Float64()*r.Height(),
	)
}

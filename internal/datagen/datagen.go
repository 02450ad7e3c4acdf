package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// MapID selects one of the two test maps.
type MapID int

// The two maps of the paper's test environment.
const (
	Map1 MapID = 1 // streets
	Map2 MapID = 2 // administrative boundaries, rivers, railway tracks
)

// Series selects one of the three object-size test series of Table 1.
type Series byte

// The three test series.
const (
	SeriesA Series = 'A'
	SeriesB Series = 'B'
	SeriesC Series = 'C'
)

// Full object counts of the paper's maps (Table 1).
const (
	Map1Objects = 131461
	Map2Objects = 128971
)

// table1 holds the per-combination targets of Table 1: average object size
// in bytes and the maximum cluster unit size Smax in KB.
var table1 = map[MapID]map[Series]struct {
	AvgSize int
	SmaxKB  int
}{
	Map1: {
		SeriesA: {625, 80},
		SeriesB: {1247, 160},
		SeriesC: {2490, 320},
	},
	Map2: {
		SeriesA: {781, 80},
		SeriesB: {1558, 160},
		SeriesC: {3113, 320},
	},
}

// Spec describes a dataset to generate.
type Spec struct {
	Map    MapID
	Series Series
	// Scale divides the full object count; 1 is the paper's full size,
	// 8 the default experiment scale. Zero means 1.
	Scale int
	// Seed makes generation deterministic; specs with equal fields
	// produce identical datasets.
	Seed int64
	// MBRScale enlarges object MBRs used as spatial keys (the paper's
	// join version b derives larger MBR extensions from the same data,
	// section 6.1). Zero means 1 (version a).
	MBRScale float64
}

// Name returns the paper's designation, e.g. "A-1".
func (s Spec) Name() string { return fmt.Sprintf("%c-%d", s.Series, s.Map) }

func (s Spec) normalized() Spec {
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.MBRScale == 0 {
		s.MBRScale = 1
	}
	return s
}

// NumObjects returns the object count after scaling.
func (s Spec) NumObjects() int {
	s = s.normalized()
	full := Map1Objects
	if s.Map == Map2 {
		full = Map2Objects
	}
	return full / s.Scale
}

// AvgObjectSize returns the target average serialized object size (Table 1).
func (s Spec) AvgObjectSize() int { return table1[s.Map][s.Series].AvgSize }

// SmaxBytes returns the maximum cluster unit size of Table 1 in bytes.
func (s Spec) SmaxBytes() int { return table1[s.Map][s.Series].SmaxKB * 1024 }

// SmaxPages returns Smax in 4 KB pages (a power of two for the buddy system:
// 20 KB pages for series A, 40 for B, 80 for C — the paper's 80/160/320 KB).
func (s Spec) SmaxPages() int { return s.SmaxBytes() / 4096 }

// Dataset is a generated map: the objects plus their spatial keys.
type Dataset struct {
	Spec    Spec
	Objects []*object.Object
	// MBRs[i] is the spatial key of Objects[i]: the object MBR, enlarged
	// by Spec.MBRScale for join version b.
	MBRs []geom.Rect
}

// Generate produces the dataset for spec. Generation is deterministic in
// the spec.
func Generate(spec Spec) *Dataset {
	spec = spec.normalized()
	if _, ok := table1[spec.Map]; !ok {
		panic(fmt.Sprintf("datagen: unknown map %d", spec.Map))
	}
	if _, ok := table1[spec.Map][spec.Series]; !ok {
		panic(fmt.Sprintf("datagen: unknown series %c", spec.Series))
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ int64(spec.Map)<<32 ^ int64(spec.Series)<<24))
	n := spec.NumObjects()
	ds := &Dataset{
		Spec:    spec,
		Objects: make([]*object.Object, 0, n),
		MBRs:    make([]geom.Rect, 0, n),
	}

	centers := urbanCenters(rng)
	sizer := newSizer(rng, spec.AvgObjectSize(), spec.SmaxBytes())

	// Object extents shrink with the square root of the object count so
	// that the number of MBR intersections per object — which drives the
	// join experiments (paper section 6.1: 0.65 per MBR in version a) —
	// is independent of the experiment scale. TIGER/Line objects are
	// small chains relative to the mapped area.
	ext := math.Sqrt(float64(spec.Scale))

	for i := 0; i < n; i++ {
		var g geom.Geometry
		if spec.Map == Map1 {
			g = genStreet(rng, centers, ext)
		} else {
			switch {
			case i%10 < 3:
				g = genCorridor(rng, centers, ext) // rivers and railway tracks
			default:
				g = genBoundary(rng, centers, ext) // administrative boundaries
			}
		}
		pad := sizer.padFor(g.NumVertices())
		o := object.New(object.ID(uint64(spec.Map)<<56|uint64(i)), g, pad)
		ds.Objects = append(ds.Objects, o)
		ds.MBRs = append(ds.MBRs, o.Bounds().Scale(spec.MBRScale))
	}
	return ds
}

// Subset returns the dataset of the objects whose spatial key keep accepts,
// in generation order, under the same Spec — the slice of a map one shard of
// a Hilbert-range partitioned cluster owns.
func (d *Dataset) Subset(keep func(key geom.Rect) bool) *Dataset {
	sub := &Dataset{Spec: d.Spec}
	for i, key := range d.MBRs {
		if keep(key) {
			sub.Objects = append(sub.Objects, d.Objects[i])
			sub.MBRs = append(sub.MBRs, key)
		}
	}
	return sub
}

// TotalBytes returns the summed serialized size of all objects.
func (d *Dataset) TotalBytes() int64 {
	var sum int64
	for _, o := range d.Objects {
		sum += int64(o.Size())
	}
	return sum
}

// MeasuredAvgSize returns the realized average object size in bytes.
func (d *Dataset) MeasuredAvgSize() float64 {
	if len(d.Objects) == 0 {
		return 0
	}
	return float64(d.TotalBytes()) / float64(len(d.Objects))
}

// DataSpace returns the data space all generators draw from (the unit
// square).
func DataSpace() geom.Rect { return geom.R(0, 0, 1, 1) }

// urbanCenter models a population center: objects cluster around it.
type urbanCenter struct {
	pos    geom.Point
	spread float64
	weight float64
}

// urbanCenters draws the shared set of population centers. The mixture of a
// few dominant cities, many towns and a uniform background reproduces the
// strong spatial clustering of TIGER street data.
func urbanCenters(rng *rand.Rand) []urbanCenter {
	var cs []urbanCenter
	total := 0.0
	for i := 0; i < 40; i++ {
		w := math.Pow(rng.Float64(), 2) // few heavy, many light centers
		c := urbanCenter{
			pos:    geom.Pt(0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64()),
			spread: 0.01 + 0.05*rng.Float64(),
			weight: w,
		}
		cs = append(cs, c)
		total += w
	}
	for i := range cs {
		cs[i].weight /= total
	}
	return cs
}

// samplePos draws an object anchor: 85% clustered around a center, 15%
// uniform background (rural areas).
func samplePos(rng *rand.Rand, centers []urbanCenter) geom.Point {
	if rng.Float64() < 0.15 {
		return geom.Pt(rng.Float64(), rng.Float64())
	}
	u := rng.Float64()
	for _, c := range centers {
		if u < c.weight {
			x := clamp01(c.pos.X + rng.NormFloat64()*c.spread)
			y := clamp01(c.pos.Y + rng.NormFloat64()*c.spread)
			return geom.Pt(x, y)
		}
		u -= c.weight
	}
	return geom.Pt(rng.Float64(), rng.Float64())
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// genStreet produces a short zigzag polyline anchored near a center: a
// street of a few blocks with slight bends, mostly axis-parallel as in a
// street grid.
func genStreet(rng *rand.Rand, centers []urbanCenter, ext float64) geom.Geometry {
	start := samplePos(rng, centers)
	nSegs := 3 + rng.Intn(10)
	step := (0.00002 + 0.00008*rng.Float64()) * ext
	horizontal := rng.Intn(2) == 0
	verts := []geom.Point{start}
	cur := start
	for i := 0; i < nSegs; i++ {
		dx, dy := 0.0, 0.0
		if horizontal {
			dx = step * (1 + 0.2*rng.NormFloat64())
			dy = step * 0.1 * rng.NormFloat64()
		} else {
			dy = step * (1 + 0.2*rng.NormFloat64())
			dx = step * 0.1 * rng.NormFloat64()
		}
		if rng.Float64() < 0.2 {
			horizontal = !horizontal // a street turning a corner
		}
		cur = geom.Pt(clamp01(cur.X+dx), clamp01(cur.Y+dy))
		verts = append(verts, cur)
	}
	return geom.NewPolyline(dedupe(verts))
}

// genCorridor produces a long polyline crossing a large part of the data
// space with momentum — a river or railway track.
func genCorridor(rng *rand.Rand, centers []urbanCenter, ext float64) geom.Geometry {
	start := samplePos(rng, centers)
	n := 12 + rng.Intn(40)
	heading := 2 * math.Pi * rng.Float64()
	step := (0.00004 + 0.00012*rng.Float64()) * ext
	verts := []geom.Point{start}
	cur := start
	for i := 0; i < n; i++ {
		heading += 0.35 * rng.NormFloat64() // meandering
		cur = geom.Pt(
			clamp01(cur.X+step*math.Cos(heading)),
			clamp01(cur.Y+step*math.Sin(heading)),
		)
		verts = append(verts, cur)
	}
	return geom.NewPolyline(dedupe(verts))
}

// genBoundary produces a simple star-shaped polygon around an anchor — an
// administrative boundary.
func genBoundary(rng *rand.Rand, centers []urbanCenter, ext float64) geom.Geometry {
	c := samplePos(rng, centers)
	n := 6 + rng.Intn(18)
	radius := (0.0002 + 0.001*rng.Float64()) * ext
	verts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.6 + 0.8*rng.Float64())
		verts = append(verts, geom.Pt(
			clamp01(c.X+r*math.Cos(ang)),
			clamp01(c.Y+r*math.Sin(ang)),
		))
	}
	return geom.NewPolygon(verts)
}

// dedupe removes consecutive duplicate vertices (clamping can collapse
// steps at the data space border) while keeping at least two.
func dedupe(verts []geom.Point) []geom.Point {
	out := verts[:1]
	for _, v := range verts[1:] {
		if !v.Eq(out[len(out)-1]) {
			out = append(out, v)
		}
	}
	if len(out) < 2 {
		out = append(out, geom.Pt(out[0].X+1e-6, out[0].Y+1e-6))
	}
	return out
}

// sizer draws serialized object sizes with the Table 1 average: the object's
// geometry bytes are fixed by its vertex count, and exponential padding
// provides the long-tailed size distribution of real map objects (in series
// C a noticeable share of objects exceeds one 4 KB page, which drives the
// primary organization's behaviour in Figures 5 and 12).
type sizer struct {
	rng     *rand.Rand
	avgSize int
	maxSize int
}

func newSizer(rng *rand.Rand, avgSize, maxSize int) *sizer {
	return &sizer{rng: rng, avgSize: avgSize, maxSize: maxSize}
}

// padFor returns padding bytes for an object with the given vertex count so
// that sizes average approximately the series target.
func (s *sizer) padFor(nVertices int) int {
	base := object.SizeFor(nVertices, 0)
	mean := float64(s.avgSize - base)
	if mean < 1 {
		mean = 1
	}
	pad := int(s.rng.ExpFloat64() * mean)
	if base+pad > s.maxSize {
		pad = s.maxSize - base
	}
	if pad < 0 {
		pad = 0
	}
	return pad
}

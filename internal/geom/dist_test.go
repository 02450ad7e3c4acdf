package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestRectMinDist(t *testing.T) {
	r := R(1, 1, 3, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 1.5), 0},        // inside
		{Pt(1, 1), 0},          // corner
		{Pt(3, 1.7), 0},        // on edge
		{Pt(0, 1.5), 1},        // left of
		{Pt(5, 1.5), 2},        // right of
		{Pt(2, 4), 2},          // above
		{Pt(2, -1), 2},         // below
		{Pt(0, 0), math.Sqrt2}, // diagonal to corner (1,1)
		{Pt(4, 3), math.Sqrt2}, // diagonal to corner (3,2)
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v, %v) = %g, want %g", r, c.p, got, c.want)
		}
	}
	if got := EmptyRect().MinDist(Pt(0, 0)); !math.IsInf(got, 1) {
		t.Errorf("MinDist of empty rect = %g, want +Inf", got)
	}
}

// TestRectMinDistIsLowerBound: MinDist must never exceed the distance to any
// point inside the rectangle (the k-NN pruning correctness condition).
func TestRectMinDistIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		p := Pt(4*rng.Float64()-2, 4*rng.Float64()-2)
		q := Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
		if md := r.MinDist(p); md > p.Dist(q)+1e-12 {
			t.Fatalf("MinDist(%v, %v) = %g exceeds dist to inner point %v = %g",
				r, p, md, q, p.Dist(q))
		}
	}
}

func TestRectMaxDist(t *testing.T) {
	r := R(1, 1, 3, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 1.5), math.Hypot(1, 0.5)},   // the centre: every corner
		{Pt(1, 1), math.Hypot(2, 1)},       // a corner: the opposite one
		{Pt(0, 1.5), math.Hypot(3, 0.5)},   // left of
		{Pt(0, 0), math.Hypot(3, 2)},       // below left: corner (3,2)
		{Pt(10, -5), math.Hypot(9, 7)},     // far below right: corner (1,2)
		{Pt(3, 1.25), math.Hypot(2, 0.75)}, // on an edge
	}
	for _, c := range cases {
		if got := r.MaxDist(c.p); got != c.want {
			t.Errorf("MaxDist(%v, %v) = %g, want %g", r, c.p, got, c.want)
		}
	}
	if got := R(0.5, 0.5, 0.5, 0.5).MaxDist(Pt(0.5, 0.5)); got != 0 {
		t.Errorf("MaxDist of a point rect to itself = %g, want 0", got)
	}
	if got := EmptyRect().MaxDist(Pt(0, 0)); !math.IsInf(got, 1) {
		t.Errorf("MaxDist of empty rect = %g, want +Inf", got)
	}
}

// TestRectMaxDistIsUpperBound: MaxDist is never below the distance to a
// point inside the rectangle, its corners included, and equals the distance
// to one of the corners (the k-NN upper-bound pruning condition).
func TestRectMaxDistIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		p := Pt(4*rng.Float64()-2, 4*rng.Float64()-2)
		q := Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
		md := r.MaxDist(p)
		if md < p.Dist(q) {
			t.Fatalf("MaxDist(%v, %v) = %g is below dist to inner point %v = %g", r, p, md, q, p.Dist(q))
		}
		corner := false
		for _, c := range []Point{Pt(r.MinX, r.MinY), Pt(r.MinX, r.MaxY), Pt(r.MaxX, r.MinY), Pt(r.MaxX, r.MaxY)} {
			if d := p.Dist(c); d > md {
				t.Fatalf("MaxDist(%v, %v) = %g is below dist to corner %v = %g", r, p, md, c, d)
			} else if d == md {
				corner = true
			}
		}
		if !corner {
			t.Fatalf("MaxDist(%v, %v) = %g is the distance to no corner", r, p, md)
		}
	}
}

func TestPolylineDistToPoint(t *testing.T) {
	l := NewPolyline([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1)})
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(0.5, 0), 0}, // on the chain
		{Pt(1, 1), 0},   // endpoint
		{Pt(0.5, 0.25), 0.25},
		{Pt(-1, 0), 1}, // beyond the first endpoint
		{Pt(2, 2), math.Sqrt2},
	}
	for _, c := range cases {
		if got := l.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("polyline DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPolygonDistToPoint(t *testing.T) {
	pg := NewPolygon([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0}, // interior
		{Pt(0, 1), 0}, // boundary
		{Pt(3, 1), 1}, // outside, nearest edge x=2
		{Pt(-1, -1), math.Sqrt2},
	}
	for _, c := range cases {
		if got := pg.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("polygon DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestDecomposedDistMatchesExact: the bucket-pruned distance must equal the
// brute-force distance of the underlying geometry.
func TestDecomposedDistMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var g Geometry
		if trial%2 == 0 {
			verts := make([]Point, 0, 30)
			cur := Pt(rng.Float64(), rng.Float64())
			verts = append(verts, cur)
			for i := 0; i < 29; i++ {
				cur = Pt(cur.X+0.05*rng.NormFloat64(), cur.Y+0.05*rng.NormFloat64())
				verts = append(verts, cur)
			}
			g = NewPolyline(verts)
		} else {
			n := 8 + rng.Intn(20)
			c := Pt(rng.Float64(), rng.Float64())
			verts := make([]Point, 0, n)
			for i := 0; i < n; i++ {
				ang := 2 * math.Pi * float64(i) / float64(n)
				r := 0.1 + 0.2*rng.Float64()
				verts = append(verts, Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
			}
			g = NewPolygon(verts)
		}
		d := Decompose(g)
		for i := 0; i < 20; i++ {
			p := Pt(2*rng.Float64()-0.5, 2*rng.Float64()-0.5)
			want := g.DistToPoint(p)
			if got := d.DistToPoint(p); math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d: decomposed dist %g, exact %g at %v", trial, got, want, p)
			}
		}
	}
}

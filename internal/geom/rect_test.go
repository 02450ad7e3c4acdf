package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRect(rng *rand.Rand) Rect {
	return R(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
}

func TestRectConstructionSwaps(t *testing.T) {
	r := R(3, 4, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 3 || r.MaxY != 4 {
		t.Fatalf("R did not normalize coordinates: %v", r)
	}
	if !r.Valid() {
		t.Fatalf("normalized rect should be valid")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Fatal("empty rect must have zero area and margin")
	}
	r := R(0, 0, 1, 1)
	if got := e.Union(r); got != r {
		t.Fatalf("Union with empty must be identity, got %v", got)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("Union with empty must be identity, got %v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Fatal("empty rect intersects nothing")
	}
	if !r.ContainsRect(e) {
		t.Fatal("every rect contains the empty rect")
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 2, 1)
	if r.Area() != 2 {
		t.Errorf("Area = %g, want 2", r.Area())
	}
	if r.Margin() != 3 {
		t.Errorf("Margin = %g, want 3", r.Margin())
	}
	if c := r.Center(); c != Pt(1, 0.5) {
		t.Errorf("Center = %v", c)
	}
	if !r.ContainsPoint(Pt(0, 0)) || !r.ContainsPoint(Pt(2, 1)) {
		t.Error("boundary points must be contained")
	}
	if r.ContainsPoint(Pt(2.0001, 0.5)) {
		t.Error("outside point must not be contained")
	}
}

func TestRectIntersection(t *testing.T) {
	a := R(0, 0, 2, 2)
	b := R(1, 1, 3, 3)
	if !a.Intersects(b) {
		t.Fatal("a and b intersect")
	}
	got := a.Intersection(b)
	if got != R(1, 1, 2, 2) {
		t.Fatalf("Intersection = %v", got)
	}
	if a.OverlapArea(b) != 1 {
		t.Fatalf("OverlapArea = %g", a.OverlapArea(b))
	}

	// Boundary touch counts as intersection (window query semantics).
	c := R(2, 0, 3, 2)
	if !a.Intersects(c) {
		t.Fatal("touching rects must intersect")
	}
	if a.OverlapArea(c) != 0 {
		t.Fatal("touching rects have zero overlap area")
	}

	d := R(5, 5, 6, 6)
	if a.Intersects(d) {
		t.Fatal("disjoint rects must not intersect")
	}
	if !a.Intersection(d).IsEmpty() {
		t.Fatal("intersection of disjoint rects must be empty")
	}
}

func TestRectEnlargement(t *testing.T) {
	a := R(0, 0, 1, 1)
	if e := a.Enlargement(R(0.2, 0.2, 0.8, 0.8)); e != 0 {
		t.Fatalf("contained rect needs no enlargement, got %g", e)
	}
	if e := a.Enlargement(R(0, 0, 2, 1)); e != 1 {
		t.Fatalf("Enlargement = %g, want 1", e)
	}
}

func TestRectScale(t *testing.T) {
	r := R(1, 1, 3, 5)
	s := r.Scale(2)
	if s.Center() != r.Center() {
		t.Fatal("Scale must preserve the center")
	}
	if s.Width() != 2*r.Width() || s.Height() != 2*r.Height() {
		t.Fatalf("Scale(2) dims = %gx%g", s.Width(), s.Height())
	}
	// An enlarged key covers its object to the last bit: the rounding of
	// center ± half-extent leaves the unguarded formula an ulp short of about
	// every other rectangle at f = 1.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		for _, f := range []float64{1, 1.0000001, 4} {
			if s := r.Scale(f); !s.ContainsRect(r) {
				t.Fatalf("%v.Scale(%v) = %v does not contain it", r, f, s)
			}
		}
	}
}

func TestOverlapDegree(t *testing.T) {
	r := R(0, 0, 2, 2)
	if d := r.OverlapDegree(R(0, 0, 1, 1)); d != 0.25 {
		t.Fatalf("OverlapDegree = %g, want 0.25", d)
	}
	if d := r.OverlapDegree(R(-1, -1, 3, 3)); d != 1 {
		t.Fatalf("full cover degree = %g, want 1", d)
	}
	if d := r.OverlapDegree(R(5, 5, 6, 6)); d != 0 {
		t.Fatalf("disjoint degree = %g, want 0", d)
	}
	pt := RectFromPoint(Pt(1, 1))
	if d := pt.OverlapDegree(r); d != 1 {
		t.Fatalf("degenerate rect degree = %g, want 1", d)
	}
}

func TestExpand(t *testing.T) {
	r := R(0, 0, 1, 1).Expand(0.5)
	if r != R(-0.5, -0.5, 1.5, 1.5) {
		t.Fatalf("Expand = %v", r)
	}
	// Shrinking past degeneracy collapses to the center, stays valid.
	s := R(0, 0, 1, 1).Expand(-2)
	if !s.Valid() {
		t.Fatalf("over-shrunk rect must stay valid: %v", s)
	}
}

// TestScaleExpandEmptyRect: Scale and Expand on the empty rect (±Inf corners)
// must preserve emptiness instead of producing NaN or collapsed rectangles
// that only blow up later as invalid R*-tree inserts.
func TestScaleExpandEmptyRect(t *testing.T) {
	e := EmptyRect()
	cases := []struct {
		name string
		got  Rect
	}{
		{"Scale(2)", e.Scale(2)},
		{"Scale(0.5)", e.Scale(0.5)},
		{"Scale(0)", e.Scale(0)},
		{"Expand(1)", e.Expand(1)},
		{"Expand(-1)", e.Expand(-1)},
		{"Expand(0)", e.Expand(0)},
	}
	for _, c := range cases {
		if !c.got.IsEmpty() {
			t.Errorf("empty rect %s = %v, want empty", c.name, c.got)
		}
		if math.IsNaN(c.got.MinX) || math.IsNaN(c.got.MinY) ||
			math.IsNaN(c.got.MaxX) || math.IsNaN(c.got.MaxY) {
			t.Errorf("empty rect %s = %v produced NaN coordinates", c.name, c.got)
		}
		if got := c.got.Union(R(0, 0, 1, 1)); got != R(0, 0, 1, 1) {
			t.Errorf("empty rect %s lost the Union identity: %v", c.name, got)
		}
	}
	// Non-empty behaviour is unchanged.
	if got := R(1, 1, 3, 5).Scale(2); got != R(0, -1, 4, 7) {
		t.Errorf("Scale(2) of non-empty = %v", got)
	}
	if got := R(0, 0, 1, 1).Expand(1); got != R(-1, -1, 2, 2) {
		t.Errorf("Expand(1) of non-empty = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	if !BoundingRect(nil).IsEmpty() {
		t.Fatal("BoundingRect(nil) must be empty")
	}
	r := BoundingRect([]Point{{1, 5}, {3, 2}, {-1, 4}})
	if r != R(-1, 2, 3, 5) {
		t.Fatalf("BoundingRect = %v", r)
	}
}

// Property: Union is commutative, associative, and contains both operands.
func TestQuickUnionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b, c := randRect(rng), randRect(rng), randRect(rng)
		u := a.Union(b)
		if u != b.Union(a) {
			return false
		}
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersects is symmetric and consistent with Intersection.
func TestQuickIntersectionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randRect(rng), randRect(rng)
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		inter := a.Intersection(b)
		if a.Intersects(b) != !inter.IsEmpty() {
			return false
		}
		if !inter.IsEmpty() && (!a.ContainsRect(inter) || !b.ContainsRect(inter)) {
			return false
		}
		// Overlap area is bounded by both areas.
		ov := a.OverlapArea(b)
		return ov <= a.Area()+1e-12 && ov <= b.Area()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: enlargement is non-negative and zero iff contained.
func TestQuickEnlargement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rng.Seed(seed)
		a, b := randRect(rng), randRect(rng)
		e := a.Enlargement(b)
		if e < -1e-12 {
			return false
		}
		if a.ContainsRect(b) && math.Abs(e) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if p.Dist(q) != 5 {
		t.Fatalf("Dist = %g", p.Dist(q))
	}
	if p.Dist2(q) != 25 {
		t.Fatalf("Dist2 = %g", p.Dist2(q))
	}
	if got := q.Sub(p); got != Pt(3, 4) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Add(Pt(1, 1)); got != Pt(2, 3) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Fatalf("Scale = %v", got)
	}
	if !p.Eq(Pt(1, 2)) || p.Eq(q) {
		t.Fatal("Eq misbehaves")
	}
}

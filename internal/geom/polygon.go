package geom

// Polygon is a simple closed ring of vertices (the closing edge from the last
// back to the first vertex is implicit). Administrative boundaries in the
// TIGER-like test data are polygons.
type Polygon struct {
	Vertices []Point
}

// NewPolygon constructs a polygon; it panics if fewer than three vertices are
// supplied.
func NewPolygon(vertices []Point) *Polygon {
	if len(vertices) < 3 {
		panic("geom: polygon needs at least 3 vertices")
	}
	return &Polygon{Vertices: vertices}
}

// Bounds returns the MBR of the ring.
func (pg *Polygon) Bounds() Rect { return BoundingRect(pg.Vertices) }

// NumVertices returns the vertex count.
func (pg *Polygon) NumVertices() int { return len(pg.Vertices) }

// Segments returns the ring edges including the closing edge.
func (pg *Polygon) Segments() []Segment {
	n := len(pg.Vertices)
	segs := make([]Segment, n)
	for i := 0; i < n; i++ {
		segs[i] = Segment{A: pg.Vertices[i], B: pg.Vertices[(i+1)%n]}
	}
	return segs
}

// ContainsPoint reports whether p lies inside the polygon or on its boundary,
// using the ray-crossing rule with explicit boundary handling.
func (pg *Polygon) ContainsPoint(p Point) bool {
	n := len(pg.Vertices)
	inside := false
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		seg := Segment{A: a, B: b}
		if cross(a, b, p) == 0 && onSegment(seg, p) {
			return true // on the boundary
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// IntersectsRect reports whether the polygon shares a point with r: either an
// edge intersects the rectangle, the rectangle lies inside the polygon, or
// the polygon lies inside the rectangle.
func (pg *Polygon) IntersectsRect(r Rect) bool {
	if r.IsEmpty() || !pg.Bounds().Intersects(r) {
		return false
	}
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		if (Segment{A: pg.Vertices[i], B: pg.Vertices[(i+1)%n]}).IntersectsRect(r) {
			return true
		}
	}
	// No edge crosses the rectangle: one contains the other, or neither.
	if pg.ContainsPoint(r.Center()) {
		return true
	}
	return r.ContainsRect(pg.Bounds())
}

// IntersectsGeometry implements the exact intersection test.
func (pg *Polygon) IntersectsGeometry(g Geometry) bool {
	return geometriesIntersect(pg, g)
}

// Area returns the absolute area of the ring (shoelace formula).
func (pg *Polygon) Area() float64 {
	n := len(pg.Vertices)
	var sum float64
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		sum += a.X*b.Y - b.X*a.Y
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

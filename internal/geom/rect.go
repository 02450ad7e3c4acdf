package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-parallel rectangle, the minimum bounding rectangle (MBR)
// used as the spatial key of the R*-tree. A Rect is valid when MinX <= MaxX
// and MinY <= MaxY. Degenerate rectangles (points, horizontal or vertical
// segments) are valid.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R constructs a Rect, swapping coordinates if necessary so the result is
// valid regardless of the argument order.
func R(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// EmptyRect returns the identity element for Union: every Union with it
// yields the other operand, and it intersects nothing.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is the empty rectangle (or otherwise inverted).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Valid reports whether r is a well-formed (possibly degenerate) rectangle
// with finite coordinates.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsInf(r.MinX, 0) && !math.IsInf(r.MinY, 0) &&
		!math.IsInf(r.MaxX, 0) && !math.IsInf(r.MaxY, 0) &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY)
}

// Width returns the extension of r in x.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extension of r in y.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r; the empty rectangle has area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Margin returns half the perimeter of r (the R*-tree split heuristic
// minimizes the sum of margins).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() + r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies in r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies completely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX &&
		s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (the window
// query predicate: boundary touch counts as intersection).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common rectangle of r and s; if they do not
// intersect the result IsEmpty.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	return r.Intersection(s).Area()
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the minimum bounding rectangle of r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Enlargement returns the area increase needed for r to cover s; this is the
// R-tree ChooseSubtree criterion of [Gut84].
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Expand returns r grown by d on every side (shrunk for negative d; the
// result is clipped to validity). The empty rectangle stays empty: growing
// ±Inf corners would produce NaN/collapsed coordinates that only blow up
// later as an invalid R*-tree insert.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
	if out.MinX > out.MaxX {
		c := (out.MinX + out.MaxX) / 2
		out.MinX, out.MaxX = c, c
	}
	if out.MinY > out.MaxY {
		c := (out.MinY + out.MaxY) / 2
		out.MinY, out.MaxY = c, c
	}
	return out
}

// Scale returns r scaled by f around its center. f > 1 enlarges the MBR;
// the join evaluation (versions a and b, paper section 6.1) uses this to
// control the number of intersecting pairs. The empty rectangle stays empty
// (its ±Inf corners have no center to scale around). For f >= 1 the result
// contains r: rounding must not leave an enlarged key an ulp short of its object.
func (r Rect) Scale(f float64) Rect {
	if r.IsEmpty() {
		return r
	}
	c := r.Center()
	hw, hh := r.Width()/2*f, r.Height()/2*f
	out := Rect{MinX: c.X - hw, MinY: c.Y - hh, MaxX: c.X + hw, MaxY: c.Y + hh}
	if f >= 1 {
		out = out.Union(r)
	}
	return out
}

// MinDist returns the minimum Euclidean distance between p and any point of
// r — zero when r contains p, +Inf for the empty rectangle. It is the
// optimistic bound of the incremental nearest-neighbor traversal [HS95]: no
// object inside r can be closer to p than MinDist.
func (r Rect) MinDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance between p and any point of
// r: the distance to r's farthest corner, +Inf for the empty rectangle. It
// is the pessimistic twin of MinDist: an object inside r is at most MaxDist
// from p, whatever its shape, so k keys' MaxDist bound the k-th nearest
// distance from above (Roussopoulos, Kelley and Vincent, "Nearest Neighbor
// Queries", SIGMOD 1995).
func (r Rect) MaxDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// OverlapDegree returns the fraction of r's area covered by s, in [0,1].
// A degenerate r (zero area) counts as fully covered when the rectangles
// intersect at all. The geometric-threshold query technique (paper section
// 5.4.1) compares this degree against T(c).
func (r Rect) OverlapDegree(s Rect) float64 {
	if !r.Intersects(s) {
		return 0
	}
	a := r.Area()
	if a == 0 {
		return 1
	}
	return r.OverlapArea(s) / a
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// BoundingRect returns the MBR of a set of points; it is EmptyRect for an
// empty slice.
func BoundingRect(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}

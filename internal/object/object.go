package object

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spatialcluster/internal/geom"
)

// ID identifies a spatial object.
type ID uint64

// Geometry type tags in the serialization.
const (
	typePolyline byte = 1
	typePolygon  byte = 2
)

// HeaderSize is the fixed size of the serialization header:
// ID (8) + type (1) + reserved (3) + vertex count (4) + pad length (4).
const HeaderSize = 8 + 1 + 3 + 4 + 4

// VertexSize is the serialized size of one vertex (two float64).
const VertexSize = 16

// Object is a spatial object with exact geometry.
type Object struct {
	ID   ID
	Geom geom.Geometry
	Pad  int // extra payload bytes appended to the serialization
}

// New creates an object; pad must be non-negative.
func New(id ID, g geom.Geometry, pad int) *Object {
	if g == nil {
		panic("object: nil geometry")
	}
	if pad < 0 {
		panic("object: negative padding")
	}
	return &Object{ID: id, Geom: g, Pad: pad}
}

// Bounds returns the MBR of the object (its spatial key).
func (o *Object) Bounds() geom.Rect { return o.Geom.Bounds() }

// Size returns the serialized size in bytes.
func (o *Object) Size() int {
	return HeaderSize + VertexSize*o.Geom.NumVertices() + o.Pad
}

// SizeFor returns the serialized size of an object with n vertices and the
// given padding, without constructing it.
func SizeFor(nVertices, pad int) int {
	return HeaderSize + VertexSize*nVertices + pad
}

// encoding returns the geometry's type tag and vertices.
func (o *Object) encoding() (byte, []geom.Point) {
	switch g := o.Geom.(type) {
	case *geom.Polyline:
		return typePolyline, g.Vertices
	case *geom.Polygon:
		return typePolygon, g.Vertices
	}
	panic(fmt.Sprintf("object: unsupported geometry %T", o.Geom))
}

// CheckKey reports why o cannot be stored under the spatial key key, or nil
// when it can: every vertex must be finite, and the key a finite rectangle
// that contains the object's bounds, because filter-then-refine decides by
// the key which queries may reach the object (store.Organization.Insert).
// The bounds skip a NaN vertex, so they cannot vouch for the vertices. Every
// path that accepts an object from outside the process checks it here first:
// the server's decoder, and the write-ahead log before it logs the object.
func (o *Object) CheckKey(key geom.Rect) error {
	_, verts := o.encoding()
	for _, v := range verts {
		if !geom.RectFromPoint(v).Valid() {
			return fmt.Errorf("object %d: non-finite vertex", o.ID)
		}
	}
	if !key.Valid() {
		return fmt.Errorf("object %d: key %v is not a finite rectangle", o.ID, key)
	}
	if bounds := o.Bounds(); !key.ContainsRect(bounds) {
		return fmt.Errorf("object %d: key %v does not contain the object's bounds %v", o.ID, key, bounds)
	}
	return nil
}

// Append appends the object's serialization, Size() bytes, to dst and
// returns the extended slice, so a caller encodes into memory it owns.
func Append(dst []byte, o *Object) []byte {
	typ, verts := o.encoding()
	start := len(dst)
	dst = slices.Grow(dst, o.Size())[:start+o.Size()]
	buf := dst[start:]
	clear(buf) // reserved header bytes and padding are zero
	binary.LittleEndian.PutUint64(buf[0:], uint64(o.ID))
	buf[8] = typ
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(verts)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(o.Pad))
	off := HeaderSize
	for _, v := range verts {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.X))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(v.Y))
		off += VertexSize
	}
	return dst
}

// View is a serialization decoded for inspection rather than kept: Vertices
// is the slice Decode was handed to fill, so a View is only good until that
// slice is reused.
type View struct {
	ID       ID
	Polygon  bool // false: polyline
	Vertices []geom.Point
	Pad      int
}

// Decode checks a serialization produced by Append and decodes its vertices
// into verts (reusing its capacity, growing it when too small). Query
// refinement decodes into per-query scratch and tests a stack geometry, so a
// candidate costs no allocation; Unmarshal builds the heap form from the
// same check.
func Decode(buf []byte, verts []geom.Point) (View, error) {
	if len(buf) < HeaderSize {
		return View{}, fmt.Errorf("object: buffer of %d bytes shorter than header", len(buf))
	}
	id := ID(binary.LittleEndian.Uint64(buf[0:]))
	typ := buf[8]
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	pad := int(binary.LittleEndian.Uint32(buf[16:]))
	want := HeaderSize + VertexSize*n + pad
	if len(buf) != want {
		return View{}, fmt.Errorf("object %d: buffer is %d bytes, serialization says %d",
			id, len(buf), want)
	}
	switch {
	case typ != typePolyline && typ != typePolygon:
		return View{}, fmt.Errorf("object %d: unknown geometry type %d", id, typ)
	case typ == typePolyline && n < 2:
		return View{}, fmt.Errorf("object %d: polyline with %d vertices", id, n)
	case typ == typePolygon && n < 3:
		return View{}, fmt.Errorf("object %d: polygon with %d vertices", id, n)
	}
	if cap(verts) < n {
		verts = make([]geom.Point, n)
	}
	verts = verts[:n]
	off := HeaderSize
	for i := range verts {
		verts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		verts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
		off += VertexSize
	}
	return View{ID: id, Polygon: typ == typePolygon, Vertices: verts, Pad: pad}, nil
}

// Unmarshal deserializes an object previously produced by Append.
func Unmarshal(buf []byte) (*Object, error) {
	v, err := Decode(buf, nil)
	if err != nil {
		return nil, err
	}
	if v.Polygon {
		return &Object{ID: v.ID, Geom: geom.NewPolygon(v.Vertices), Pad: v.Pad}, nil
	}
	return &Object{ID: v.ID, Geom: geom.NewPolyline(v.Vertices), Pad: v.Pad}, nil
}

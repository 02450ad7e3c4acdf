package object

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spatialcluster/internal/geom"
)

func TestMarshalRoundTripPolyline(t *testing.T) {
	g := geom.NewPolyline([]geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.3, 0.4), geom.Pt(0.5, 0.6)})
	o := New(42, g, 100)
	buf := Append(nil, o)
	if len(buf) != o.Size() {
		t.Fatalf("Append length %d != Size %d", len(buf), o.Size())
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Pad != 100 {
		t.Fatalf("round trip header: %+v", got)
	}
	gl, ok := got.Geom.(*geom.Polyline)
	if !ok || len(gl.Vertices) != 3 || !gl.Vertices[2].Eq(geom.Pt(0.5, 0.6)) {
		t.Fatalf("round trip geometry: %+v", got.Geom)
	}
	if got.Bounds() != o.Bounds() {
		t.Fatal("bounds changed in round trip")
	}
}

func TestMarshalRoundTripPolygon(t *testing.T) {
	g := geom.NewPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)})
	o := New(7, g, 0)
	got, err := Unmarshal(Append(nil, o))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Geom.(*geom.Polygon); !ok {
		t.Fatalf("expected polygon, got %T", got.Geom)
	}
}

func TestSizeFor(t *testing.T) {
	g := geom.NewPolyline([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	o := New(1, g, 33)
	if o.Size() != SizeFor(2, 33) {
		t.Fatalf("Size=%d SizeFor=%d", o.Size(), SizeFor(2, 33))
	}
	if SizeFor(0, 0) != HeaderSize {
		t.Fatal("SizeFor(0,0) must be the header size")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("short buffer must error")
	}
	o := New(1, geom.NewPolyline([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}), 5)
	buf := Append(nil, o)
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer must error")
	}
	bad := append([]byte(nil), buf...)
	bad[8] = 99 // unknown type
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown geometry type must error")
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil geometry": func() { New(1, nil, 0) },
		"negative pad": func() {
			New(1, geom.NewPolyline([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}), -1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: Append/Unmarshal round-trips arbitrary polylines bit-exactly, and
// Append's bytes do not depend on the memory it appends into.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(idRaw uint64, nRaw, padRaw uint8) bool {
		n := 2 + int(nRaw)%50
		pad := int(padRaw)
		verts := make([]geom.Point, n)
		for i := range verts {
			verts[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		o := New(ID(idRaw), geom.NewPolyline(verts), pad)
		buf := Append(nil, o)
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if got.ID != o.ID || got.Pad != o.Pad {
			return false
		}
		if !bytes.Equal(Append(nil, got), buf) {
			return false
		}
		// Appended behind other bytes, into spare capacity full of garbage,
		// the encoding is the same and the prefix is kept.
		dirty := bytes.Repeat([]byte{0xAB}, 3+len(buf)+int(nRaw))[:3]
		out := Append(dirty, o)
		return bytes.Equal(out[:3], []byte{0xAB, 0xAB, 0xAB}) && bytes.Equal(out[3:], buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckKey: a key must be a finite rectangle containing the object's
// bounds, and every vertex finite; a key equal to the bounds, or larger, is
// taken.
func TestCheckKey(t *testing.T) {
	line := New(7, geom.NewPolyline([]geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.4, 0.3)}), 0)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		o    *Object
		key  geom.Rect
		want string // "" when taken
	}{
		{"bounds", line, line.Bounds(), ""},
		{"larger key", line, geom.R(0, 0, 1, 1), ""},
		{"key short of the object", line, geom.R(0.2, 0.2, 0.3, 0.3), "does not contain"},
		{"NaN key", line, geom.Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1}, "not a finite rectangle"},
		{"infinite key", line, geom.Rect{MinX: 0, MinY: 0, MaxX: inf, MaxY: 1}, "not a finite rectangle"},
		{"NaN vertex", New(8, geom.NewPolyline([]geom.Point{geom.Pt(0.2, 0.2), geom.Pt(nan, 0.3)}), 0), geom.R(0, 0, 1, 1), "non-finite vertex"},
		{"infinite polygon vertex", New(9, geom.NewPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, inf)}), 0), geom.R(0, 0, 1, 1), "non-finite vertex"},
	} {
		err := c.o.CheckKey(c.key)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error saying %q", c.name, err, c.want)
		}
	}
}

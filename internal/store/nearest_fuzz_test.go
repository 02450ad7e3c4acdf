package store

import (
	"math"
	"math/rand"
	"testing"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// nearestCase is one k-NN fuzz case: objects under their keys, a query point
// and k.
type nearestCase struct {
	objs []*object.Object
	keys []geom.Rect
	pt   geom.Point
	k    int
}

// nearestRecord is the number of bytes that describe one object, and
// nearestObjects the most objects a case holds.
const (
	nearestRecord  = 6
	nearestObjects = 256
)

// decodeNearestCase reads a case from bytes: k, the query point's mode and
// two operands, then one record per object. A record places the key's lower
// corner and extent on a grid of 1/32, so distances tie often; picks a shape
// whose vertices lie on the key's corners and edges — the far corner among
// them, where an object's distance equals its key's MaxDist; grows the key
// strictly beyond the object's bounds, or not; and pads the object up to
// about 4 KB, so objects straddle pages. The query point lies on a corner of
// a key, one unit in the last place off it, on a vertex, or anywhere on the
// grid. ok is false when the bytes hold no object.
func decodeNearestCase(data []byte) (c nearestCase, ok bool) {
	if len(data) < 4+nearestRecord {
		return c, false
	}
	const g = 1.0 / 32
	c.k = 1 + int(data[0]%24)
	mode, sel, off := data[1], data[2], data[3]
	for i, rest := 0, data[4:]; len(rest) >= nearestRecord && i < nearestObjects; i, rest = i+1, rest[nearestRecord:] {
		b := rest[:nearestRecord]
		x, y := float64(b[0]%64)*g, float64(b[1]%64)*g
		w, h := float64(b[2]&15)*g, float64(b[2]>>4)*g
		lo, hi := geom.Pt(x, y), geom.Pt(x+w, y+h)
		var shape geom.Geometry
		switch b[3] % 5 {
		case 0: // a diagonal: both far corners
			shape = geom.NewPolyline([]geom.Point{lo, hi})
		case 1: // the other diagonal
			shape = geom.NewPolyline([]geom.Point{geom.Pt(x, y+h), geom.Pt(x+w, y)})
		case 2: // along the bottom edge, then up the right one
			shape = geom.NewPolyline([]geom.Point{lo, geom.Pt(x+w, y), hi})
		case 3: // a triangle on three corners
			shape = geom.NewPolygon([]geom.Point{lo, geom.Pt(x+w, y), hi})
		case 4: // from the middle of the top edge to a corner
			shape = geom.NewPolyline([]geom.Point{geom.Pt(x+w/2, y+h), lo})
		}
		key := geom.R(x, y, x+w, y+h)
		if grow := float64(b[4]%4) * g / 2; grow > 0 { // strictly larger than the bounds
			switch sides := b[4] >> 2 % 5; sides {
			case 0:
				key.MinX -= grow
			case 1:
				key.MaxX += grow
			case 2:
				key.MinY -= grow
			case 3:
				key.MaxY += grow
			default:
				key = geom.R(key.MinX-grow, key.MinY-grow, key.MaxX+grow, key.MaxY+grow)
			}
		}
		c.objs = append(c.objs, object.New(object.ID(i+1), shape, int(b[5])*16))
		c.keys = append(c.keys, key)
	}
	if len(c.objs) == 0 {
		return c, false
	}
	j := int(sel) % len(c.objs)
	k := c.keys[j]
	corners := [4]geom.Point{geom.Pt(k.MinX, k.MinY), geom.Pt(k.MaxX, k.MinY), geom.Pt(k.MinX, k.MaxY), geom.Pt(k.MaxX, k.MaxY)}
	switch corner := corners[off%4]; mode % 4 {
	case 0:
		c.pt = corner
	case 1: // one unit in the last place off the corner, either way on either axis
		dir := math.Inf(1)
		if off&4 != 0 {
			dir = math.Inf(-1)
		}
		if off&8 != 0 {
			corner.X = math.Nextafter(corner.X, dir)
		} else {
			corner.Y = math.Nextafter(corner.Y, dir)
		}
		c.pt = corner
	case 2:
		segs := c.objs[j].Geom.Segments()
		c.pt = segs[int(off)%len(segs)].B
	case 3:
		c.pt = geom.Pt(float64(sel)*g-1, float64(off)*g-1)
	}
	return c, true
}

// checkNearest holds NearestQuery on all three organizations to the brute
// force ranking by knnLess: the same IDs, the same distance bits.
func checkNearest(t *testing.T, c nearestCase) {
	live := make(map[object.ID]*object.Object, len(c.objs))
	for _, o := range c.objs {
		live[o.ID] = o
	}
	wantIDs, wantDists := bruteKNN(live, c.pt, c.k)
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		env := NewEnv(8)
		var org Organization
		switch kind {
		case "secondary":
			org = NewSecondary(env)
		case "primary":
			org = NewPrimary(env)
		case "cluster":
			org = NewCluster(env, ClusterConfig{SmaxBytes: 8 * disk.PageSize})
		}
		for i, o := range c.objs {
			if err := org.Insert(o, c.keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		res := org.NearestQuery(c.pt, c.k)
		if len(res.IDs) != len(wantIDs) {
			t.Fatalf("%s: %d-NN of %v over %d objects answers %d, brute force %d", kind, c.k, c.pt, len(c.objs), len(res.IDs), len(wantIDs))
		}
		for i := range wantIDs {
			if res.IDs[i] != wantIDs[i] || math.Float64bits(res.Dists[i]) != math.Float64bits(wantDists[i]) {
				t.Fatalf("%s: %d-NN of %v over %d objects: answer %d is %d at %v, brute force %d at %v",
					kind, c.k, c.pt, len(c.objs), i, res.IDs[i], res.Dists[i], wantIDs[i], wantDists[i])
			}
		}
	}
}

// FuzzNearest decodes objects, keys and a query point from bytes (see
// decodeNearestCase) and holds every organization's k-NN answer to the brute
// force one, bit for bit: the pruning by the keys' MinDist and MaxDist before
// a data page is read must never change an answer, whether a key equals its
// object's bounds or exceeds them, and wherever the query point lies.
func FuzzNearest(f *testing.F) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{1, 3, 40, 200} {
		for mode := byte(0); mode < 4; mode++ {
			data := []byte{byte(rng.Intn(24)), mode, byte(rng.Intn(256)), byte(rng.Intn(256))}
			for i := 0; i < n*nearestRecord; i++ {
				data = append(data, byte(rng.Intn(256)))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeNearestCase(data); ok {
			checkNearest(t, c)
		}
	})
}

package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// OpKind classifies one generated operation.
type OpKind byte

// The operation kinds: a mixed workload (MixedWorkload) draws from the
// first four, a query stream (Stream) from the last three.
const (
	OpInsert OpKind = iota
	OpDelete
	OpUpdate
	OpWindow
	OpPoint
	OpKNN
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	case OpWindow:
		return "window"
	case OpPoint:
		return "point"
	case OpKNN:
		return "knn"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one generated operation — the only one: every workload of the
// repository is a []Op. Inserts and updates carry the object and its spatial
// key; deletes carry the victim ID; window queries the window; point and
// k-NN queries the point, k-NN also k.
type Op struct {
	Kind   OpKind
	Obj    *object.Object // insert, update
	Key    geom.Rect      // insert, update
	ID     object.ID      // delete (updates use Obj.ID)
	Window geom.Rect      // window
	Point  geom.Point     // point, knn
	K      int            // knn
}

// MixSpec describes a mixed insert/delete/update/query workload over a
// generated dataset. Workload generation is deterministic: equal specs over
// equal datasets produce identical op streams.
type MixSpec struct {
	// Ops is the number of operations to generate.
	Ops int
	// Fractions of the four op kinds; they are normalized by their sum.
	// All zero selects the default mix 0.2/0.3/0.3/0.2.
	InsertFrac, DeleteFrac, UpdateFrac, QueryFrac float64
	// HotspotFrac is the share of delete/update victims and query centers
	// drawn from the hotspot region instead of the whole data space —
	// update skew concentrates clustering decay the way real workloads do.
	// Zero disables the hotspot.
	HotspotFrac float64
	// HotspotSide is the side length of the square hotspot region; the
	// center is drawn data-density-weighted from the seed. Default 0.2.
	HotspotSide float64
	// WindowArea is the area fraction of generated query windows
	// (default 0.001, the middle window size of Figure 8).
	WindowArea float64
	// Seed drives all generation.
	Seed int64
}

func (m MixSpec) normalized() MixSpec {
	if m.InsertFrac == 0 && m.DeleteFrac == 0 && m.UpdateFrac == 0 && m.QueryFrac == 0 {
		m.InsertFrac, m.DeleteFrac, m.UpdateFrac, m.QueryFrac = 0.2, 0.3, 0.3, 0.2
	}
	if m.HotspotSide <= 0 {
		m.HotspotSide = 0.2
	}
	if m.WindowArea <= 0 {
		m.WindowArea = 0.001
	}
	return m
}

// insertIDBit tags the IDs of workload-inserted objects so they can never
// collide with the dataset's generated IDs (map<<56 | index).
const insertIDBit = uint64(1) << 48

// mixInit seeds the workload generator and draws the hotspot region (the
// first random decision of the stream, so Hotspot can reproduce it).
func (d *Dataset) mixInit(spec MixSpec) (*rand.Rand, geom.Rect) {
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x6d69786564)) // "mixed"
	hc := d.randomMBRPoint(rng)
	hotspot := geom.R(hc.X-spec.HotspotSide/2, hc.Y-spec.HotspotSide/2,
		hc.X+spec.HotspotSide/2, hc.Y+spec.HotspotSide/2).Intersection(DataSpace())
	return rng, hotspot
}

// Hotspot returns the hotspot region MixedWorkload will use for spec.
func (d *Dataset) Hotspot(spec MixSpec) geom.Rect {
	_, hotspot := d.mixInit(spec.normalized())
	return hotspot
}

// MixedWorkload generates a deterministic mixed workload over the dataset:
// the op stream tracks its own view of the live object set, so deletes and
// updates always name an object that is live at that point of the stream
// (applying the stream in order to a store built from the dataset never
// misses), and inserts use fresh IDs. When a delete or update finds the
// live set empty it degrades to an insert, so the stream always has exactly
// spec.Ops operations even for mixes that exhaust the store.
func (d *Dataset) MixedWorkload(spec MixSpec) []Op {
	spec = spec.normalized()
	rng, hotspot := d.mixInit(spec)
	sum := spec.InsertFrac + spec.DeleteFrac + spec.UpdateFrac + spec.QueryFrac
	if sum <= 0 {
		panic(fmt.Sprintf("datagen: mixed workload with fraction sum %g", sum))
	}
	pInsert := spec.InsertFrac / sum
	pDelete := pInsert + spec.DeleteFrac/sum
	pUpdate := pDelete + spec.UpdateFrac/sum

	// The generator's own geometry sources: fresh centers and sizer drawn
	// from the workload seed (the dataset does not retain its own).
	centers := urbanCenters(rng)
	sizer := newSizer(rng, d.Spec.AvgObjectSize(), d.Spec.SmaxBytes())
	ext := math.Sqrt(float64(d.Spec.normalized().Scale))
	mbrScale := d.Spec.normalized().MBRScale

	w := &mixState{
		rng:     rng,
		live:    make(map[object.ID]geom.Point, len(d.Objects)),
		inHot:   make(map[object.ID]bool),
		hotspot: hotspot,
	}
	for i, o := range d.Objects {
		c := d.MBRs[i].Center()
		w.add(o.ID, c)
	}
	nextID := uint64(d.Spec.Map)<<56 | insertIDBit

	genObject := func(id object.ID) (*object.Object, geom.Rect) {
		var g geom.Geometry
		if d.Spec.Map == Map1 {
			g = genStreet(rng, centers, ext)
		} else if rng.Float64() < 0.3 {
			g = genCorridor(rng, centers, ext)
		} else {
			g = genBoundary(rng, centers, ext)
		}
		o := object.New(id, g, sizer.padFor(g.NumVertices()))
		return o, o.Bounds().Scale(mbrScale)
	}

	side := math.Sqrt(spec.WindowArea * DataSpace().Area())
	ops := make([]Op, 0, spec.Ops)
	insert := func() Op {
		id := object.ID(nextID)
		nextID++
		o, key := genObject(id)
		w.add(id, key.Center())
		return Op{Kind: OpInsert, Obj: o, Key: key}
	}
	for len(ops) < spec.Ops {
		r := rng.Float64()
		hot := rng.Float64() < spec.HotspotFrac
		switch {
		case r < pInsert:
			ops = append(ops, insert())
		case r < pDelete:
			id, ok := w.pickVictim(hot)
			if !ok {
				// Nothing live to delete: fall back to an insert so the
				// stream always reaches the requested length (a pure-delete
				// mix would otherwise loop forever on an exhausted store).
				ops = append(ops, insert())
				continue
			}
			w.remove(id)
			ops = append(ops, Op{Kind: OpDelete, ID: id})
		case r < pUpdate:
			id, ok := w.pickVictim(hot)
			if !ok {
				ops = append(ops, insert())
				continue
			}
			o, key := genObject(id)
			w.update(id, key.Center())
			ops = append(ops, Op{Kind: OpUpdate, Obj: o, Key: key})
		default:
			c := w.queryCenter(hot, d, rng)
			win := geom.R(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2).
				Intersection(DataSpace())
			ops = append(ops, Op{Kind: OpWindow, Window: win})
		}
	}
	return ops
}

// mixState tracks the workload generator's view of the live object set,
// with a secondary pool of hotspot residents for skewed victim selection.
// All picks are by slice index, never by map iteration, so the stream is
// deterministic. Each live id appears at most once per pool (updates only
// move the recorded center), so pool size is bounded by the live-set size
// plus lazily pruned stale entries and victim selection stays unbiased.
type mixState struct {
	rng     *rand.Rand
	live    map[object.ID]geom.Point // id -> current key center
	all     []object.ID
	hot     []object.ID        // ids added while inside the hotspot (lazily pruned)
	inHot   map[object.ID]bool // membership of the hot pool
	hotspot geom.Rect
}

func (w *mixState) add(id object.ID, center geom.Point) {
	w.live[id] = center
	w.all = append(w.all, id)
	w.addHot(id, center)
}

// update records an updated object's new center, adding it to the hotspot
// pool if the update moved it in (moves out are pruned lazily on pick).
func (w *mixState) update(id object.ID, center geom.Point) {
	w.live[id] = center
	w.addHot(id, center)
}

func (w *mixState) addHot(id object.ID, center geom.Point) {
	if w.hotspot.ContainsPoint(center) && !w.inHot[id] {
		w.hot = append(w.hot, id)
		w.inHot[id] = true
	}
}

func (w *mixState) remove(id object.ID) { delete(w.live, id) }

// pickVictim draws a live object ID, preferring the hotspot pool when hot is
// set. Stale pool entries (deleted, or moved out of the hotspot by an
// update) are pruned lazily by swap-remove.
func (w *mixState) pickVictim(hot bool) (object.ID, bool) {
	if hot {
		if id, ok := w.pickFrom(&w.hot, true); ok {
			return id, true
		}
	}
	return w.pickFrom(&w.all, false)
}

func (w *mixState) pickFrom(pool *[]object.ID, needHot bool) (object.ID, bool) {
	for len(*pool) > 0 {
		i := w.rng.Intn(len(*pool))
		id := (*pool)[i]
		center, live := w.live[id]
		if live && (!needHot || w.hotspot.ContainsPoint(center)) {
			return id, true
		}
		last := len(*pool) - 1
		(*pool)[i] = (*pool)[last]
		*pool = (*pool)[:last]
		if needHot {
			delete(w.inHot, id)
		}
	}
	return 0, false
}

// queryCenter draws a query window center: inside the hotspot when hot,
// data-density-weighted otherwise.
func (w *mixState) queryCenter(hot bool, d *Dataset, rng *rand.Rand) geom.Point {
	if hot && w.hotspot.Area() > 0 {
		return geom.Pt(
			w.hotspot.MinX+rng.Float64()*w.hotspot.Width(),
			w.hotspot.MinY+rng.Float64()*w.hotspot.Height(),
		)
	}
	return d.randomMBRPoint(rng)
}

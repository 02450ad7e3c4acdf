package main

import (
	"math"
	"math/rand"
	"sort"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// opKind is the request type of one generated operation.
type opKind uint8

const (
	opWindow opKind = iota
	opPoint
	opKNN
	opInsert
	opUpdate
	opDelete
	numOpKinds
)

var opKindNames = [numOpKinds]string{"window", "point", "knn", "insert", "update", "delete"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated operation: everything the system under test receives.
type op struct {
	kind opKind
	win  geom.Rect      // window
	pt   geom.Point     // point, knn
	k    int            // knn
	obj  *object.Object // insert, update
	key  geom.Rect      // insert, update
	id   object.ID      // delete
}

// querySpec describes a read stream.
type querySpec struct {
	n          int
	windowArea float64   // share of the data space one window covers
	k          int       // neighbours asked of a k-NN query
	windowOnly bool      // windows only; otherwise 50/25/25 window/point/knn
	hotTenths  int       // tenths of the query centres drawn inside hotspot
	hotspot    geom.Rect // ignored when hotTenths is 0
}

// slot is one position of a deck: what kind of operation it holds and
// whether that operation falls into the hotspot.
type slot struct {
	kind opKind
	hot  bool
}

// newDeck lays out one block of the stratified generators: counts[k]
// operations of each kind k, hotTenths tenths of every kind's operations
// hot. The generators shuffle a deck and deal it, block after block, so every
// block holds exactly its share of each kind and of hot and cold operations
// of each kind. Fixing these counts (instead of flipping a coin per
// operation) removes the binomial noise that the number of expensive
// operations — cold windows above all — would put on every per-operation
// count.
func newDeck(counts [numOpKinds]int, hotTenths int) []slot {
	var deck []slot
	for k, n := range counts {
		for i := 0; i < n; i++ {
			deck = append(deck, slot{kind: opKind(k), hot: i < n*hotTenths/10})
		}
	}
	return deck
}

func shuffle(rng *rand.Rand, deck []slot) {
	rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
}

// genQueries generates spec.n read operations from seed. Query centres are
// data-density-weighted: a uniform point inside the MBR of a stored object
// (paper section 5.4), an object centred inside the hotspot for the hot
// share. Which objects is decided by sampleCentres.
func genQueries(ds *datagen.Dataset, spec querySpec, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	all := make([]int, len(ds.MBRs))
	var hot []int
	for i, r := range ds.MBRs {
		all[i] = i
		if spec.hotTenths > 0 && spec.hotspot.ContainsPoint(r.Center()) {
			hot = append(hot, i)
		}
	}
	hotTenths := spec.hotTenths
	if len(hot) == 0 {
		hotTenths = 0
	}
	deck := newDeck([numOpKinds]int{opWindow: 20, opPoint: 10, opKNN: 10}, hotTenths)
	if spec.windowOnly {
		deck = newDeck([numOpKinds]int{opWindow: 40}, hotTenths)
	}
	// Every class of operation (kind × hot or cold) gets its own sample of
	// centres, so that the expensive classes — cold windows above all — cover
	// the map evenly in every stream.
	blocks := (spec.n + len(deck) - 1) / len(deck)
	perBlock := make(map[slot]int)
	for _, sl := range deck {
		perBlock[sl]++
	}
	centres := make(map[slot][]geom.Point)
	for _, sl := range deck { // deck order, not map order: the stream must be a function of the seed
		if centres[sl] == nil {
			pool := all
			if sl.hot {
				pool = hot
			}
			centres[sl] = sampleCentres(ds, pool, blocks*perBlock[sl], rng)
		}
	}
	side := math.Sqrt(spec.windowArea * datagen.DataSpace().Area())
	ops := make([]op, 0, spec.n)
	for len(ops) < spec.n {
		shuffle(rng, deck)
		for i := 0; i < len(deck) && len(ops) < spec.n; i++ {
			c := centres[deck[i]][0]
			centres[deck[i]] = centres[deck[i]][1:]
			o := op{kind: deck[i].kind, pt: c, k: spec.k}
			if o.kind == opWindow {
				o.win = geom.R(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2).
					Intersection(datagen.DataSpace())
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// sampleCentres draws n query centres from the objects listed in pool, in
// seeded order. The objects are not drawn independently: the pool is laid
// out along the Hilbert curve and cut into n equal stretches, and one object
// is drawn from each. Every stream therefore covers the data the same way —
// dense and sparse regions in proportion — whatever its seed, and the
// per-operation costs that depend on where queries land (modelled I/O,
// answer sizes, allocations) vary between seeds by a fraction of what
// independent draws give.
func sampleCentres(ds *datagen.Dataset, pool []int, n int, rng *rand.Rand) []geom.Point {
	if n == 0 || len(pool) == 0 {
		return nil
	}
	order := append([]int(nil), pool...)
	sort.Slice(order, func(a, b int) bool {
		ka, kb := geom.HilbertIndex(ds.MBRs[order[a]].Center()), geom.HilbertIndex(ds.MBRs[order[b]].Center())
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	out := make([]geom.Point, n)
	for j := range out {
		at := int((float64(j) + rng.Float64()) * float64(len(order)) / float64(n))
		r := ds.MBRs[order[min(at, len(order)-1)]]
		out[j] = geom.Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// mutGen generates a mutation stream that only names live IDs: it tracks its
// own view of the stored set, so applying its operations in order to a store
// built from the dataset never misses, never inserts a duplicate, and its
// final view is the oracle the end-of-run comparison scans. Inserted and
// updated geometries are jittered copies of live objects, so the stored
// distribution stays the dataset's; half the victims and templates come from
// the hotspot, which concentrates tombstones the way real update skew does.
type mutGen struct {
	rng     *rand.Rand
	hotspot geom.Rect
	live    map[object.ID]*object.Object
	all     pool
	hot     pool // IDs centred inside the hotspot (pruned lazily)
	nextID  uint64
	deck    []slot
	at      int
}

// pool is a set of IDs supporting uniform random picks.
type pool struct {
	ids []object.ID
	in  map[object.ID]bool
}

func (p *pool) add(id object.ID) {
	if p.in == nil {
		p.in = make(map[object.ID]bool)
	}
	if !p.in[id] {
		p.in[id] = true
		p.ids = append(p.ids, id)
	}
}

// pick draws a random member satisfying ok, dropping members that do not.
func (p *pool) pick(rng *rand.Rand, ok func(object.ID) bool) (object.ID, bool) {
	for len(p.ids) > 0 {
		i := rng.Intn(len(p.ids))
		id := p.ids[i]
		if ok(id) {
			return id, true
		}
		last := len(p.ids) - 1
		p.ids[i] = p.ids[last]
		p.ids = p.ids[:last]
		delete(p.in, id)
	}
	return 0, false
}

// insertIDBase tags workload-inserted IDs so they cannot collide with the
// dataset's generated IDs (map<<56 | index).
const insertIDBase = uint64(1) << 48

func newMutGen(ds *datagen.Dataset, hotspot geom.Rect, seed int64) *mutGen {
	g := &mutGen{
		rng:     rand.New(rand.NewSource(seed)),
		hotspot: hotspot,
		live:    make(map[object.ID]*object.Object, len(ds.Objects)),
		nextID:  uint64(ds.Spec.Map)<<56 | insertIDBase,
		// insert 30 / update 40 / delete 30, half of each in the hotspot
		deck: newDeck([numOpKinds]int{opInsert: 6, opUpdate: 8, opDelete: 6}, 5),
	}
	g.at = len(g.deck)
	for _, o := range ds.Objects {
		g.track(o)
	}
	return g
}

func (g *mutGen) track(o *object.Object) {
	g.live[o.ID] = o
	g.all.add(o.ID)
	if g.hotspot.ContainsPoint(o.Bounds().Center()) {
		g.hot.add(o.ID)
	}
}

func (g *mutGen) isLive(id object.ID) bool { _, ok := g.live[id]; return ok }

func (g *mutGen) isLiveHot(id object.ID) bool {
	o, ok := g.live[id]
	return ok && g.hotspot.ContainsPoint(o.Bounds().Center())
}

// victim draws a live object, from the hotspot when hot is set and the
// hotspot still has residents.
func (g *mutGen) victim(hot bool) *object.Object {
	if hot {
		if id, ok := g.hot.pick(g.rng, g.isLiveHot); ok {
			return g.live[id]
		}
	}
	id, ok := g.all.pick(g.rng, g.isLive)
	if !ok {
		panic("bench: mutation stream exhausted the store")
	}
	return g.live[id]
}

// maxJitter bounds how far a copied geometry moves on each axis: a few
// object extents, so a moved object usually changes its data page but stays
// in its neighbourhood.
const maxJitter = 0.004

// jittered returns a copy of o's geometry under a new ID, translated by a
// random offset that keeps it inside the data space.
func (g *mutGen) jittered(o *object.Object, id object.ID) *object.Object {
	dx := (2*g.rng.Float64() - 1) * maxJitter
	dy := (2*g.rng.Float64() - 1) * maxJitter
	b := o.Bounds()
	if b.MinX+dx < 0 || b.MaxX+dx > 1 {
		dx = -dx
	}
	if b.MinY+dy < 0 || b.MaxY+dy > 1 {
		dy = -dy
	}
	src := o.Geom.(*geom.Polyline).Vertices // series A of map 1 holds streets only
	verts := make([]geom.Point, len(src))
	for i, v := range src {
		verts[i] = geom.Pt(v.X+dx, v.Y+dy)
	}
	return object.New(id, geom.NewPolyline(verts), o.Pad)
}

// next generates one mutation and advances the generator's view.
func (g *mutGen) next() op {
	if g.at == len(g.deck) {
		shuffle(g.rng, g.deck)
		g.at = 0
	}
	kind, hot := g.deck[g.at].kind, g.deck[g.at].hot
	g.at++
	v := g.victim(hot)
	switch kind {
	case opInsert:
		o := g.jittered(v, object.ID(g.nextID))
		g.nextID++
		g.track(o)
		return op{kind: opInsert, obj: o, key: o.Bounds()}
	case opUpdate:
		o := g.jittered(v, v.ID)
		g.track(o)
		return op{kind: opUpdate, obj: o, key: o.Bounds()}
	default:
		delete(g.live, v.ID)
		return op{kind: opDelete, id: v.ID}
	}
}

// take generates the next n mutations.
func (g *mutGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

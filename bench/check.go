package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// An answer is compared through a 64-bit digest so that every timed
// operation can be verified without holding or sorting ID lists on the
// measured path. Window and point answers are sets (the router returns them
// in ID order, a store in traversal order), so their digest is
// order-insensitive; a k-NN answer is an ordered list with distances, so its
// digest is order-sensitive and covers the distance bits.

func mix(x uint64) uint64 { // splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// setDigest digests an unordered ID set.
func setDigest[T ~uint64](ids []T) uint64 {
	d := mix(uint64(len(ids)) + 1)
	for _, id := range ids {
		d += mix(uint64(id))
	}
	return d
}

// listDigest digests an ordered ID list with its distances.
func listDigest[T ~uint64](ids []T, dists []float64) uint64 {
	d := mix(uint64(len(ids)) + 1)
	for i, id := range ids {
		d = mix(d ^ uint64(id))
		if i < len(dists) {
			d = mix(d ^ math.Float64bits(dists[i]))
		}
	}
	return d
}

// oracle answers queries by scanning a set of objects: the reference every
// answer of the system under test is compared with. It shares no code with
// the R*-tree, the stores or the shard map.
type oracle struct {
	objs []*object.Object
	mbrs []geom.Rect
}

func newOracle(objs []*object.Object) *oracle {
	o := &oracle{objs: objs, mbrs: make([]geom.Rect, len(objs))}
	for i, ob := range objs {
		o.mbrs[i] = ob.Bounds()
	}
	return o
}

func oracleOfLive(live map[object.ID]*object.Object) *oracle {
	objs := make([]*object.Object, 0, len(live))
	for _, o := range live {
		objs = append(objs, o)
	}
	return newOracle(objs)
}

func (o *oracle) window(w geom.Rect) []object.ID {
	var ids []object.ID
	for i, r := range o.mbrs {
		if r.Intersects(w) && o.objs[i].Geom.IntersectsRect(w) {
			ids = append(ids, o.objs[i].ID)
		}
	}
	return ids
}

func (o *oracle) point(p geom.Point) []object.ID {
	var ids []object.ID
	for i, r := range o.mbrs {
		if r.ContainsPoint(p) && o.objs[i].Geom.ContainsPoint(p) {
			ids = append(ids, o.objs[i].ID)
		}
	}
	return ids
}

// kBest keeps the k nearest candidates seen so far in ascending order of
// exact distance, ties by ascending ID (the order store.NearestResult
// documents).
type kBest struct {
	k     int
	ids   []object.ID
	dists []float64
}

func (b *kBest) full() bool { return len(b.ids) == b.k }

// bound is the k-th best distance; call it only when full.
func (b *kBest) bound() float64 { return b.dists[len(b.dists)-1] }

func (b *kBest) add(id object.ID, dist float64) {
	at := sort.Search(len(b.ids), func(j int) bool {
		return dist < b.dists[j] || dist == b.dists[j] && id < b.ids[j]
	})
	if at == b.k {
		return
	}
	if !b.full() {
		b.ids, b.dists = append(b.ids, 0), append(b.dists, 0)
	}
	copy(b.ids[at+1:], b.ids[at:])
	copy(b.dists[at+1:], b.dists[at:])
	b.ids[at], b.dists[at] = id, dist
}

// nearest returns the k nearest objects by exact distance.
func (o *oracle) nearest(p geom.Point, k int) ([]object.ID, []float64) {
	best := kBest{k: k}
	for i, r := range o.mbrs {
		if best.full() && r.MinDist(p) > best.bound() {
			continue
		}
		best.add(o.objs[i].ID, o.objs[i].Geom.DistToPoint(p))
	}
	return best.ids, best.dists
}

// digest answers a read operation and digests the answer.
func (o *oracle) digest(q *op) uint64 {
	switch q.kind {
	case opWindow:
		return setDigest(o.window(q.win))
	case opPoint:
		return setDigest(o.point(q.pt))
	case opKNN:
		return listDigest(o.nearest(q.pt, q.k))
	}
	panic("bench: oracle asked to answer a mutation")
}

// digests answers every operation of a read stream, on every processor.
func (o *oracle) digests(ops []op) []uint64 {
	out := make([]uint64, len(ops))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				out[i] = o.digest(&ops[i])
			}
		}()
	}
	wg.Wait()
	return out
}

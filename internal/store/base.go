package store

import (
	"fmt"
	"slices"
	"time"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// base is the organization-independent half of the three storage models: the
// R*-tree of the filter step, the spatial keys and object tallies, the
// locking of the Organization methods, and the query engine. Secondary,
// Primary and Cluster embed it; what remains in them is their layout — where
// the exact representations live and how they are transferred.
type base struct {
	env  *Env
	tree *rtree.Tree
	lay  layout                  // the organization embedding this base
	keys map[object.ID]geom.Rect // spatial key of each live object

	objects     int
	objectBytes int64

	// enc is the scratch an inserted object is encoded into before the
	// layout copies its bytes onto pages.
	enc []byte
}

// layout is what an organization adds to base. insertLocked and deleteLocked
// run under Env's write lock; the others hold what their caller holds.
type layout interface {
	// insertLocked stores o under key — its leaf entry and its exact
	// representation — or refuses it with the store unchanged (see
	// Organization.Insert). base books the key and the tallies.
	insertLocked(o *object.Object, key geom.Rect) error
	// admit refuses an object the layout cannot store whatever it holds;
	// insertLocked refuses it too, and Update asks before the old version
	// goes.
	admit(o *object.Object) error
	// deleteLocked reclaims or tombstones the storage of object id, whose
	// leaf entry base has just removed from the tree.
	deleteLocked(id object.ID)
	// entry decodes a leaf payload into its object ID and serialized size.
	entry(payload []byte) (object.ID, int)
	// views reads, through the shared buffer and with technique tech, the
	// objects behind the qualifying entries of one data page of a query with
	// window w — empty for a point or k-NN query — and returns their
	// serializations in entry order, valid until sc is reused. The view of an
	// entry whose key decides it (keyDecides) may be nil, the read charged
	// and its pages touched all the same.
	views(lm rtree.LeafMatch, w geom.Rect, tech Technique, sc *scratch) [][]byte
	// objectStats fills the object-storage fields of st: ObjectPages,
	// DeadBytes and Units.
	objectStats(st *StorageStats)
	// flushObjects hands the object storage's in-memory pages to the buffer.
	flushObjects()
	// demand is ObjectPageDemand.
	demand(leaf disk.PageID, ids []object.ID) Demand
}

// layoutOf returns the layout behind org, looking through wrappers (Unwrap).
func layoutOf(org Organization) layout { return Unwrap(org).(layout) }

// Tree implements Organization.
func (b *base) Tree() *rtree.Tree { return b.tree }

// Env implements Organization.
func (b *base) Env() *Env { return b.env }

// Insert implements Organization under Env's write lock.
func (b *base) Insert(o *object.Object, key geom.Rect) error {
	b.env.mu.Lock()
	defer b.env.mu.Unlock()
	return b.insert(o, key)
}

func (b *base) insert(o *object.Object, key geom.Rect) error {
	if err := b.lay.insertLocked(o, key); err != nil {
		return err
	}
	b.keys[o.ID] = key
	b.objects++
	b.objectBytes += int64(o.Size())
	return nil
}

// Delete implements Organization under Env's write lock: the leaf entry
// leaves the tree, and the layout reclaims or tombstones the object's
// storage.
func (b *base) Delete(id object.ID) bool {
	b.env.mu.Lock()
	defer b.env.mu.Unlock()
	return b.delete(id)
}

func (b *base) delete(id object.ID) bool {
	key, ok := b.keys[id]
	if !ok {
		return false
	}
	size := 0
	if !b.tree.Delete(key, func(p []byte) bool {
		pid, sz := b.lay.entry(p)
		size = sz // the tree stops at the first match
		return pid == id
	}) {
		panic(fmt.Sprintf("store: object %d known but not in the tree", id))
	}
	b.lay.deleteLocked(id)
	delete(b.keys, id)
	b.objects--
	b.objectBytes -= int64(size)
	return true
}

// Update implements Organization under Env's write lock: delete, then
// reinsert. An object the layout does not admit (ErrObjectTooLarge) is
// refused before the old version goes, and as Update's bool cannot say so it
// panics, the store unchanged, as every refused insert did before Insert
// returned errors.
func (b *base) Update(o *object.Object, key geom.Rect) bool {
	b.env.mu.Lock()
	defer b.env.mu.Unlock()
	if _, ok := b.keys[o.ID]; !ok {
		return false
	}
	if err := b.lay.admit(o); err != nil {
		panic(err)
	}
	b.delete(o.ID)
	if err := b.insert(o, key); err != nil {
		panic(err) // admitted, and its ID just freed: unreachable
	}
	return true
}

// WindowQuery implements Organization. A candidate whose key lies inside w
// is an answer without its geometry being decoded (scratch.inWindow), or even
// assembled by the layout.
func (b *base) WindowQuery(w geom.Rect, tech Technique) QueryResult {
	return b.search(w, w, tech, func(sc *scratch, key geom.Rect, view []byte) bool {
		return sc.inWindow(key, view, w)
	})
}

// PointQuery implements Organization. A point query is maximally selective,
// so it reads page by page: the cluster organization performs like the
// secondary organization here (section 5.5). It decides nothing by a key, so
// it hands the layout no window and gets every view.
func (b *base) PointQuery(pt geom.Point) QueryResult {
	return b.search(geom.RectFromPoint(pt), geom.EmptyRect(), TechPageByPage, func(sc *scratch, _ geom.Rect, view []byte) bool {
		return containsPoint(sc.decode(view), pt)
	})
}

// begin starts one query: it takes Env's read lock and hands the query its
// scratch, whose tally starts at the time the lock took. The query defers end,
// so a query that panics — over a damaged page, say — releases both.
func (b *base) begin() *scratch {
	sc := getScratch()
	sc.tally = disk.Tally{}
	if !b.env.mu.TryRLock() { // contended: the wait is worth a clock
		start := time.Now()
		b.env.mu.RLock()
		sc.tally.LockWaitNS = time.Since(start).Nanoseconds()
	}
	return sc
}

// end releases what begin took.
func (b *base) end(sc *scratch) {
	b.env.mu.RUnlock()
	sc.release()
}

// search is the filter/refine engine of window and point queries: the
// R*-tree surfaces one data page at a time with its entries whose keys
// intersect r (rtree.SearchLeaves), the layout reads their objects with tech
// for window w, and keep refines each candidate. Nothing between a data
// page's fetch and its objects' reads touches I/O, so this issues the buffer
// and disk requests of an entry-by-entry search in the same order. The
// answers collect in the scratch, and the result gets them in one allocation
// of their final size — nil when there are none.
func (b *base) search(r, w geom.Rect, tech Technique, keep func(sc *scratch, key geom.Rect, view []byte) bool) QueryResult {
	var res QueryResult
	sc := b.begin()
	defer b.end(sc)
	sc.answer = sc.answer[:0]
	b.tree.SearchLeaves(r, &sc.tally, func(lm rtree.LeafMatch) bool {
		for i, view := range b.lay.views(lm, w, tech, sc) {
			id, size := b.lay.entry(lm.Matched[i].Payload)
			res.Candidates++
			res.CandidateBytes += int64(size)
			if keep(sc, lm.Matched[i].Rect, view) {
				sc.answer = append(sc.answer, id)
			}
		}
		return true
	})
	if len(sc.answer) > 0 {
		res.IDs = slices.Clone(sc.answer)
	}
	res.Tally = sc.tally
	return res
}

// Stats implements Organization under Env's read lock.
func (b *base) Stats() StorageStats {
	b.env.mu.RLock()
	defer b.env.mu.RUnlock()
	st := StorageStats{
		DirPages:    b.tree.DirPages(),
		LeafPages:   b.tree.LeafPages(),
		Objects:     b.objects,
		ObjectBytes: b.objectBytes,
		LiveBytes:   b.objectBytes,
	}
	b.lay.objectStats(&st)
	st.OccupiedPages = st.DirPages + st.LeafPages + st.ObjectPages
	if st.OccupiedPages > 0 {
		st.ExtentUtil = float64(st.LiveBytes) / (float64(st.OccupiedPages) * float64(disk.PageSize))
	}
	return st
}

// Flush implements Organization under Env's write lock.
func (b *base) Flush() {
	b.env.mu.Lock()
	defer b.env.mu.Unlock()
	b.flushLocked()
}

func (b *base) flushLocked() {
	b.lay.flushObjects()
	b.tree.Flush()
}

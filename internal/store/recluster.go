package store

import (
	"fmt"
	"sort"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// This file holds the cluster organization's reorganization primitives: the
// fragmentation report that reclustering policies decide on, the single-unit
// repack, and the full Hilbert rebuild. The policies themselves live in
// internal/recluster; everything here charges modelled I/O through the same
// disk and buffer as any other operation.

// UnitFrag describes the decay of one cluster unit: how many of its occupied
// bytes are tombstones and how many pages its extent pins down.
type UnitFrag struct {
	Leaf       disk.PageID // data page owning the unit
	LiveBytes  int
	DeadBytes  int
	AllocPages int // full allocated extent (charged size)
}

// DeadFrac returns the fraction of occupied bytes that are dead.
func (uf UnitFrag) DeadFrac() float64 {
	total := uf.LiveBytes + uf.DeadBytes
	if total == 0 {
		return 0
	}
	return float64(uf.DeadBytes) / float64(total)
}

// FragReport aggregates the fragmentation of a cluster organization.
type FragReport struct {
	Units          int
	LiveBytes      int64
	DeadBytes      int64
	AllocatedPages int      // summed unit extents
	Worst          UnitFrag // unit with the highest dead fraction
}

// DeadFrac returns the organization-wide dead-byte fraction.
func (fr FragReport) DeadFrac() float64 {
	total := fr.LiveBytes + fr.DeadBytes
	if total == 0 {
		return 0
	}
	return float64(fr.DeadBytes) / float64(total)
}

// ExtentUtil returns live bytes over allocated unit space.
func (fr FragReport) ExtentUtil() float64 {
	if fr.AllocatedPages == 0 {
		return 0
	}
	return float64(fr.LiveBytes) / (float64(fr.AllocatedPages) * float64(disk.PageSize))
}

// Frag reports the current fragmentation. It is pure bookkeeping (no I/O).
func (c *Cluster) Frag() FragReport {
	c.env.mu.RLock()
	defer c.env.mu.RUnlock()
	var fr FragReport
	fr.Units = len(c.units)
	first := true
	for leaf, u := range c.units {
		uf := c.unitFrag(leaf, u)
		fr.LiveBytes += int64(uf.LiveBytes)
		fr.DeadBytes += int64(uf.DeadBytes)
		fr.AllocatedPages += uf.AllocPages
		// Deterministic worst pick: dead fraction, ties by lowest page.
		if first || uf.DeadFrac() > fr.Worst.DeadFrac() ||
			(uf.DeadFrac() == fr.Worst.DeadFrac() && uf.Leaf < fr.Worst.Leaf) {
			fr.Worst = uf
			first = false
		}
	}
	return fr
}

// UnitFrags returns the fragmentation of every unit, worst first
// (deterministic order: dead fraction descending, then data page ascending).
func (c *Cluster) UnitFrags() []UnitFrag {
	c.env.mu.RLock()
	defer c.env.mu.RUnlock()
	out := make([]UnitFrag, 0, len(c.units))
	for leaf, u := range c.units {
		out = append(out, c.unitFrag(leaf, u))
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].DeadFrac(), out[j].DeadFrac()
		if fi != fj {
			return fi > fj
		}
		return out[i].Leaf < out[j].Leaf
	})
	return out
}

func (c *Cluster) unitFrag(leaf disk.PageID, u *clusterUnit) UnitFrag {
	return UnitFrag{
		Leaf:       leaf,
		LiveBytes:  u.used - u.dead,
		DeadBytes:  u.dead,
		AllocPages: u.extent.Pages,
	}
}

// RepackUnit rewrites the cluster unit of data page leaf without its dead
// bytes, laying the live objects out in Hilbert order of their key centers
// (a deterministic layout that also restores spatial order inside the unit).
// The old extent is read with one sequential request, the compacted content
// written with one, and the freed space returns to the buddy system or
// extent allocator — the incremental maintenance step of section 5.2's
// "moving or rebuilding cluster units is cheap" argument. It reports whether
// the unit existed and had dead bytes to reclaim.
func (c *Cluster) RepackUnit(leaf disk.PageID) bool {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	return c.repackUnitLocked(leaf)
}

func (c *Cluster) repackUnitLocked(leaf disk.PageID) bool {
	u := c.units[leaf]
	if u == nil || u.dead == 0 {
		return false
	}
	live := make([]unitObject, 0, len(u.index))
	for _, pos := range u.index {
		live = append(live, u.objects[pos])
	}
	sort.Slice(live, func(i, j int) bool {
		hi := geom.HilbertIndex(c.keys[live[i].id].Center())
		hj := geom.HilbertIndex(c.keys[live[j].id].Center())
		if hi != hj {
			return hi < hj
		}
		return live[i].id < live[j].id
	})

	pages := c.readUnitPages(u)
	blob := unitBlob(u.used - u.dead)
	objs := make([]unitObject, 0, len(live))
	for _, uo := range live {
		objs = append(objs, unitObject{id: uo.id, off: len(blob), size: uo.size})
		blob = append(blob, unitBytesAt(pages, uo.off, uo.size)...)
	}

	c.freeUnitExtent(u)
	u.extent, u.fromBuddy = c.allocUnitExtent(len(blob))
	c.writeUnitDirect(u, blob)
	u.objects = objs
	u.index = make(map[object.ID]int, len(objs))
	for i, uo := range objs {
		u.index[uo.id] = i
	}
	u.dead = 0
	return true
}

// Rebuild reconstructs the whole organization with static global clustering:
// every live object is collected (each unit is read with one sequential
// request), the old units and tree pages are freed, and the objects are bulk
// loaded in Hilbert order at the given fill (0 selects the bulk loader's
// default). This is the heavyweight end of the reclustering spectrum — it
// restores near-optimal clustering at a cost proportional to the whole
// database.
func (c *Cluster) Rebuild(fill float64) {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()

	// Collect the live objects in tree traversal order (deterministic), one
	// sequential read per unit.
	objs := make([]*object.Object, 0, c.objects)
	keys := make([]geom.Rect, 0, c.objects)
	c.tree.WalkNodes(func(n *rtree.Node) bool {
		if n.Level > 0 || len(n.Entries) == 0 {
			// An entry-less leaf is the surviving root of an emptied tree;
			// it has no cluster unit (full deletion freed it).
			return true
		}
		u := c.unitFor(n.ID)
		pages := c.readUnitPages(u)
		for _, e := range n.Entries {
			id, _ := decodePayload(e.Payload)
			pos, ok := u.index[id]
			if !ok {
				panic(fmt.Sprintf("store: rebuild found entry for unknown object %d", id))
			}
			uo := u.objects[pos]
			o, err := object.Unmarshal(unitBytesAt(pages, uo.off, uo.size))
			if err != nil {
				panic(fmt.Sprintf("store: corrupt object %d during rebuild: %v", id, err))
			}
			objs = append(objs, o)
			keys = append(keys, e.Rect)
		}
		return true
	})

	// Free the old units and tree, then load fresh.
	for _, u := range c.units {
		c.freeUnitExtent(u)
	}
	c.units = make(map[disk.PageID]*clusterUnit)
	c.homes = make(map[object.ID]disk.PageID, len(objs))
	c.keys = make(map[object.ID]geom.Rect, len(objs))
	c.objects = 0
	c.objectBytes = 0
	c.tree.Release()
	c.tree = c.newTree()
	c.bulkLoadHilbertLocked(objs, keys, fill)
}

// unitBytesAt returns size bytes starting at unit offset off of the unit's
// page contents (a view of one page, or a fresh assembly across pages).
func unitBytesAt(pages [][]byte, off, size int) []byte {
	var spill []byte
	return unitView(func(idx int) []byte { return pages[idx] }, off, size, &spill)
}

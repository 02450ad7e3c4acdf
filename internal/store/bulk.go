package store

import (
	"fmt"
	"sort"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// BulkLoadHilbert loads the objects into an empty cluster organization with
// static global clustering: the objects are sorted by the Hilbert index of
// their key centers, grouped into cluster units bounded by the data-page
// capacity and by Smax·fill bytes, and the R*-tree is packed bottom-up over
// the groups. All cluster units are written with purely sequential I/O, so
// construction approaches the disk's transfer rate — the classical "Hilbert
// packing" alternative to the paper's dynamic cluster organization. The
// resulting store answers queries and joins exactly like a dynamically
// built one.
//
// fill is the target utilization in (0,1]; 0 selects 0.9. keys[i] is the
// spatial key of objs[i] (pass the object MBRs, or enlarged ones).
func (c *Cluster) BulkLoadHilbert(objs []*object.Object, keys []geom.Rect, fill float64) {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	c.bulkLoadHilbertLocked(objs, keys, fill)
}

func (c *Cluster) bulkLoadHilbertLocked(objs []*object.Object, keys []geom.Rect, fill float64) {
	if c.objects != 0 {
		panic("store: BulkLoadHilbert requires an empty cluster organization")
	}
	if len(objs) != len(keys) {
		panic(fmt.Sprintf("store: %d objects but %d keys", len(objs), len(keys)))
	}
	if len(objs) == 0 {
		return
	}
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}

	// Hilbert order of the key centers.
	order := make([]int, len(objs))
	for i := range order {
		order[i] = i
	}
	hilbert := make([]uint64, len(objs))
	for i, k := range keys {
		hilbert[i] = geom.HilbertIndex(k.Center())
	}
	sort.SliceStable(order, func(a, b int) bool { return hilbert[order[a]] < hilbert[order[b]] })

	// Group into cluster units: at most fill·M entries and fill·Smax bytes.
	maxEntries := int(fill * float64(c.tree.MaxEntries()))
	if maxEntries < 1 {
		maxEntries = 1
	}
	maxBytes := int(fill * float64(c.cfg.SmaxBytes))
	type group struct {
		idxs  []int
		bytes int
	}
	var groups []group
	cur := group{}
	for _, idx := range order {
		size := objs[idx].Size()
		if size > c.cfg.SmaxBytes {
			panic(fmt.Sprintf("store: object %d of %d bytes exceeds Smax", objs[idx].ID, size))
		}
		if len(cur.idxs) > 0 && (len(cur.idxs) >= maxEntries || cur.bytes+size > maxBytes) {
			groups = append(groups, cur)
			cur = group{}
		}
		cur.idxs = append(cur.idxs, idx)
		cur.bytes += size
	}
	groups = append(groups, cur)

	// Pack the tree over the groups, then write one cluster unit per data
	// page with a single sequential request each.
	entryGroups := make([][]rtree.Entry, len(groups))
	for gi, g := range groups {
		entries := make([]rtree.Entry, len(g.idxs))
		for ei, idx := range g.idxs {
			entries[ei] = rtree.Entry{
				Rect:    keys[idx],
				Payload: encodePayload(objs[idx].ID, objs[idx].Size()),
			}
		}
		entryGroups[gi] = entries
	}
	leafIDs := c.tree.PackLeaves(entryGroups)

	for gi, g := range groups {
		leaf := leafIDs[gi]
		blob := unitBlob(g.bytes)
		unitObjs := make([]unitObject, 0, len(g.idxs))
		for _, idx := range g.idxs {
			o := objs[idx]
			unitObjs = append(unitObjs, unitObject{id: o.ID, off: len(blob), size: o.Size()})
			blob = object.Append(blob, o)
			c.homes[o.ID] = leaf
			c.keys[o.ID] = keys[idx]
		}
		u := c.newUnit(len(blob))
		c.writeUnitDirect(u, blob)
		u.objects = unitObjs
		for i, uo := range unitObjs {
			u.index[uo.id] = i
		}
		c.units[leaf] = u
		c.objects += len(g.idxs)
		c.objectBytes += int64(g.bytes)
	}
	c.flushLocked()
}

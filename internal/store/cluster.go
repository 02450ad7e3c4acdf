package store

import (
	"fmt"
	"sort"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/pagefile"
	"spatialcluster/internal/rtree"
)

// ClusterConfig tunes the cluster organization.
type ClusterConfig struct {
	// SmaxBytes is the maximum cluster unit size (Table 1: 80/160/320 KB,
	// approximately 1.5·M·Sobj per section 4.2.1).
	SmaxBytes int
	// BuddySizes is the number of buddy sizes used for unit allocation:
	// 0 or 1 allocates fixed Smax extents (section 5.3); 3 is the paper's
	// restricted buddy system (section 5.3.1); larger values approach the
	// full buddy system.
	BuddySizes int
}

// unitObject locates one object inside a cluster unit.
type unitObject struct {
	id   object.ID
	off  int // byte offset within the unit
	size int
}

// clusterUnit is the storage cluster attached to one data page: a contiguous
// extent holding the exact representations of the page's objects in
// arbitrary (append) order. Internal clustering holds for each object; local
// clustering within a unit is irrelevant because the unit is the transfer
// granule (paper section 4.2).
type clusterUnit struct {
	extent    pagefile.Extent
	fromBuddy bool
	used      int // bytes appended (live + dead)
	dead      int // tombstoned bytes still inside the unit
	objects   []unitObject
	index     map[object.ID]int // position in objects; deleted ids are absent

	// The partially filled tail page is kept in memory and written when it
	// completes (or on Flush), exactly like the sequential file's tail
	// handling: appending to a cluster unit must not pay a
	// read-modify-write per object. This costs one page of memory per
	// open unit.
	tailIdx   int // page index within the extent; -1 when none
	tailBuf   []byte
	tailDirty bool
}

func (u *clusterUnit) usedPages() int {
	return (u.used + disk.PageSize - 1) / disk.PageSize
}

// Cluster is the cluster organization (paper section 4): a modified R*-tree
// (no reinsertion on the data-page level) whose every data page references
// one cluster unit of at most Smax bytes. Window queries and joins can fetch
// all objects of a qualifying page with a single read request.
type Cluster struct {
	base
	cfg   ClusterConfig
	buddy *pagefile.BuddySystem // nil for fixed-size units

	units   map[disk.PageID]*clusterUnit // data page -> unit
	homes   map[object.ID]disk.PageID    // object -> data page
	pending *object.Object               // object being inserted
}

// NewCluster creates an empty cluster organization on env.
func NewCluster(env *Env, cfg ClusterConfig) *Cluster {
	if cfg.SmaxBytes < 2*disk.PageSize {
		panic(fmt.Sprintf("store: Smax of %d bytes is below two pages", cfg.SmaxBytes))
	}
	c := &Cluster{
		cfg:   cfg,
		units: make(map[disk.PageID]*clusterUnit),
		homes: make(map[object.ID]disk.PageID),
	}
	c.base = base{env: env, lay: c, keys: make(map[object.ID]geom.Rect)}
	if cfg.BuddySizes > 1 {
		c.buddy = pagefile.NewBuddySystem(env.Alloc, c.smaxPages(), cfg.BuddySizes)
	}
	c.tree = c.newTree()
	return c
}

// treeConfig is the configuration of the modified R*-tree of section 4.2.1;
// fresh trees (newTree) and restored trees (persist.go) share it so the
// organization's hooks are always attached.
func (c *Cluster) treeConfig() rtree.Config {
	return rtree.Config{
		DisableLeafReinsert: true,
		DisableLeafCondense: true,
		OnLeafInsert:        c.onLeafInsert,
		OnLeafSplit:         c.onLeafSplit,
	}
}

// newTree creates the modified R*-tree of section 4.2.1 (also used when a
// full rebuild replaces the tree).
func (c *Cluster) newTree() *rtree.Tree {
	return rtree.New(c.env.Buf, c.env.Alloc, c.treeConfig())
}

func (c *Cluster) smaxPages() int { return c.cfg.SmaxBytes / disk.PageSize }

// Name implements Organization.
func (c *Cluster) Name() string { return "cluster org." }

// Config returns the cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// NumUnits returns the number of cluster units.
func (c *Cluster) NumUnits() int { return len(c.units) }

// insertLocked implements layout. It follows section 4.2.2: (1) the R*-tree
// picks the data page, (2) the MBR entry is inserted there, (3) the object
// is appended to the page's cluster unit, and (4) the page and unit are
// split when the unit exceeds Smax or the page exceeds M entries. Steps 3
// and 4 run inside the tree's insertion via the OnLeafInsert/OnLeafSplit
// hooks. An Update appends the new version to the cluster unit of whatever
// data page the R*-tree now chooses; the old bytes stay tombstoned in the
// old unit. Under sustained updates this decays the clustering — the
// measurable effect the online reclusterer exists to repair.
func (c *Cluster) insertLocked(o *object.Object, key geom.Rect) error {
	if err := c.admit(o); err != nil {
		return err
	}
	if _, dup := c.keys[o.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, o.ID)
	}
	c.pending = o
	c.tree.Insert(key, encodePayload(o.ID, o.Size()))
	c.pending = nil
	return nil
}

// admit implements layout: no cluster unit holds an object larger than
// Smax. The paper stores such objects in separate storage units (footnote in
// section 4.2.2); the workloads of Table 1 do not produce them.
func (c *Cluster) admit(o *object.Object) error {
	if o.Size() > c.cfg.SmaxBytes {
		return fmt.Errorf("%w: object %d has %d bytes, Smax is %d",
			ErrObjectTooLarge, o.ID, o.Size(), c.cfg.SmaxBytes)
	}
	return nil
}

// deleteLocked implements layout (section 4.2.2 run backwards): the object
// is tombstoned inside its cluster unit — the unit's contiguity makes
// in-place reclamation impossible without a rewrite, so the bytes stay as
// dead space until the reclusterer repacks the unit. A unit whose last object
// dies is freed whole: its extent returns to the buddy system or extent
// allocator, and its (now empty) data page has left the tree.
func (c *Cluster) deleteLocked(id object.ID) {
	leaf := c.homes[id]
	u := c.unitFor(leaf)
	pos, ok := u.index[id]
	if !ok {
		panic(fmt.Sprintf("store: object %d not in its home unit", id))
	}
	delete(u.index, id)
	u.dead += u.objects[pos].size
	delete(c.homes, id)
	if len(u.index) == 0 {
		// The unit is all tombstones; its data page just left the tree
		// (DisableLeafCondense frees exactly the empty pages). Return the
		// extent — this is what keeps a churning cluster organization from
		// leaking disk.
		c.freeUnitExtent(u)
		delete(c.units, leaf)
	}
}

// entry implements layout.
func (c *Cluster) entry(payload []byte) (object.ID, int) { return decodePayload(payload) }

// onLeafInsert appends the pending object to the data page's cluster unit
// and requests a split when the unit outgrew Smax.
func (c *Cluster) onLeafInsert(leaf disk.PageID, e rtree.Entry) bool {
	if c.pending == nil {
		panic("store: cluster leaf insert without a pending object")
	}
	id, _ := decodePayload(e.Payload)
	if id != c.pending.ID {
		panic(fmt.Sprintf("store: leaf insert for %d while inserting %d", id, c.pending.ID))
	}
	u := c.units[leaf]
	if u == nil {
		u = c.newUnit(c.pending.Size())
		c.units[leaf] = u
	}
	c.appendObject(u, leaf, c.pending)
	return u.used > c.cfg.SmaxBytes
}

// newUnit allocates a cluster unit able to hold at least need bytes. A unit
// may transiently exceed Smax (an insert lands before the split fires, and a
// split side may inherit more than Smax bytes); such extents come from the
// plain allocator and are replaced by regular units on the next split.
func (c *Cluster) newUnit(need int) *clusterUnit {
	ext, fromBuddy := c.allocUnitExtent(need)
	return &clusterUnit{extent: ext, fromBuddy: fromBuddy,
		index: make(map[object.ID]int), tailIdx: -1}
}

func (c *Cluster) allocUnitExtent(need int) (pagefile.Extent, bool) {
	pages := (need + disk.PageSize - 1) / disk.PageSize
	if pages < 1 {
		pages = 1
	}
	if c.buddy != nil {
		if pages <= c.buddy.MaxPages() {
			return c.buddy.Alloc(pages), true
		}
		return c.env.Alloc.Alloc(pages), false
	}
	if pages < c.smaxPages() {
		pages = c.smaxPages()
	}
	return c.env.Alloc.Alloc(pages), false
}

func (c *Cluster) freeUnitExtent(u *clusterUnit) {
	for i := 0; i < u.extent.Pages; i++ {
		c.env.Buf.Drop(u.extent.Start + disk.PageID(i))
	}
	if u.fromBuddy {
		c.buddy.Free(u.extent)
	} else {
		c.env.Alloc.Free(u.extent)
	}
}

// appendObject writes the object's bytes at the unit's append position,
// growing the unit's buddy if necessary (which moves the unit and is charged
// a read of the old and a write of the new extent).
func (c *Cluster) appendObject(u *clusterUnit, leaf disk.PageID, o *object.Object) {
	need := u.used + o.Size()
	if need > u.extent.Pages*disk.PageSize {
		c.growUnit(u, need)
	}
	c.enc = object.Append(c.enc[:0], o)
	c.writeBytes(u, u.used, c.enc)
	u.objects = append(u.objects, unitObject{id: o.ID, off: u.used, size: o.Size()})
	u.index[o.ID] = len(u.objects) - 1
	u.used = need
	c.homes[o.ID] = leaf
}

// growUnit moves the unit into a larger extent (the next buddy size, or a
// plain extent for transient over-Smax growth). The move is charged: the old
// extent is read and the content written to the new location, exactly the
// buddy-system construction overhead of section 5.3.1.
func (c *Cluster) growUnit(u *clusterUnit, need int) {
	data := c.readUnitPages(u)
	c.freeUnitExtent(u)
	u.extent, u.fromBuddy = c.allocUnitExtent(need)
	blob := unitBlob(u.used)[:u.used]
	for i, pg := range data {
		copy(blob[i*disk.PageSize:], pg)
	}
	c.writeUnitDirect(u, blob)
}

// unitBlob returns an empty buffer for n bytes of unit content whose
// capacity ends with its last page, as writeUnitDirect needs.
func unitBlob(n int) []byte {
	return make([]byte, 0, (n+disk.PageSize-1)/disk.PageSize*disk.PageSize)
}

// writeUnitDirect writes a unit's whole content to its extent as one write
// request — the contiguity of cluster units makes moving or rebuilding them
// cheap (section 5.2). blob, from unitBlob, is not copied: its full pages go
// to the disk, and its partial last page stays in memory as the tail.
func (c *Cluster) writeUnitDirect(u *clusterUnit, blob []byte) {
	full := len(blob) / disk.PageSize
	rem := len(blob) % disk.PageSize
	if full > 0 {
		pages := make([][]byte, full)
		for i := range pages {
			pages[i] = blob[i*disk.PageSize : (i+1)*disk.PageSize : (i+1)*disk.PageSize]
		}
		// Evict any stale buffered copies before bypassing the buffer.
		for i := 0; i < full; i++ {
			c.env.Buf.Drop(u.extent.Start + disk.PageID(i))
		}
		c.env.Disk.WriteRun(u.extent.Start, pages, nil)
	}
	if rem > 0 {
		tail := blob[full*disk.PageSize : (full+1)*disk.PageSize]
		u.tailIdx, u.tailBuf, u.tailDirty = full, tail, true
		c.env.Buf.Drop(u.extent.Start + disk.PageID(full))
	} else {
		u.tailIdx, u.tailBuf, u.tailDirty = -1, nil, false
	}
	u.used = len(blob)
}

// readUnitPages returns the content of the unit's occupied pages. The whole
// extent is read with one sequential request that bypasses the buffer (a
// large scan must not evict the hot directory pages); buffered dirty copies
// and the in-memory tail page take precedence over the disk content. Nothing
// is copied: the caller copies what it needs under the write lock.
func (c *Cluster) readUnitPages(u *clusterUnit) [][]byte {
	n := u.usedPages()
	if n == 0 {
		return nil
	}
	pages := make([][]byte, n)
	c.env.Disk.ReadRun(u.extent.Start, pages, false, nil)
	for i := range pages {
		if i == u.tailIdx && u.tailBuf != nil {
			pages[i] = u.tailBuf
		} else if pg, ok := c.env.Buf.Touch(u.extent.Start + disk.PageID(i)); ok {
			pages[i] = pg
		}
	}
	return pages
}

func clonePage(pg []byte) []byte {
	cp := make([]byte, disk.PageSize)
	copy(cp, pg)
	return cp
}

// writeBytes writes data into the unit starting at byte offset off. Appends
// accumulate in the in-memory tail page; completed pages are written through
// the shared buffer (so their cost is charged when they are evicted or
// flushed, with contiguous runs coalescing).
func (c *Cluster) writeBytes(u *clusterUnit, off int, data []byte) {
	for len(data) > 0 {
		pageIdx := off / disk.PageSize
		inPage := off % disk.PageSize
		n := disk.PageSize - inPage
		if n > len(data) {
			n = len(data)
		}
		pid := u.extent.Start + disk.PageID(pageIdx)
		var page []byte
		switch {
		case pageIdx == u.tailIdx && u.tailBuf != nil:
			page = u.tailBuf
		case inPage == 0:
			// Fresh page (appends only move forward).
			page = make([]byte, disk.PageSize)
		default:
			// Mid-page write without a tail buffer (only possible after a
			// grow cleared it): recover the page content.
			existing, ok := c.env.Buf.Touch(pid)
			if !ok {
				existing = c.env.Buf.Get(pid)
			}
			page = clonePage(existing)
		}
		copy(page[inPage:], data[:n])
		if inPage+n == disk.PageSize {
			// Page complete: hand it to the write-back buffer.
			c.env.Buf.Put(pid, page)
			if pageIdx == u.tailIdx {
				u.tailIdx, u.tailBuf, u.tailDirty = -1, nil, false
			}
		} else {
			u.tailIdx, u.tailBuf, u.tailDirty = pageIdx, page, true
		}
		data = data[n:]
		off += n
	}
}

// flushTail writes the unit's in-memory tail page through the buffer. The
// tail stays in memory for further appends (it will be rewritten when it
// completes, as a real file system would).
func (c *Cluster) flushTail(u *clusterUnit) {
	if u.tailDirty && u.tailBuf != nil {
		pid := u.extent.Start + disk.PageID(u.tailIdx)
		c.env.Buf.Put(pid, clonePage(u.tailBuf))
		u.tailDirty = false
	}
}

// onLeafSplit redistributes the objects of the split data page onto two new
// cluster units according to the tree's entry distribution, freeing the old
// unit. This is the cluster split of section 4.2.1: it copies large sets of
// objects, but reads the old unit with a single request thanks to global
// clustering.
func (c *Cluster) onLeafSplit(left, right disk.PageID, leftEntries, rightEntries []rtree.Entry) {
	old := c.units[left]
	if old == nil {
		panic(fmt.Sprintf("store: split of data page %d without a unit", left))
	}
	oldPages := c.readUnitPages(old)

	rebuild := func(leaf disk.PageID, entries []rtree.Entry) {
		size := 0
		for _, e := range entries {
			_, n := decodePayload(e.Payload)
			size += n
		}
		blob := unitBlob(size)
		objs := make([]unitObject, 0, len(entries))
		for _, e := range entries {
			id, _ := decodePayload(e.Payload)
			pos, ok := old.index[id]
			if !ok {
				panic(fmt.Sprintf("store: split moves unknown object %d", id))
			}
			uo := old.objects[pos]
			objs = append(objs, unitObject{id: id, off: len(blob), size: uo.size})
			blob = append(blob, unitBytesAt(oldPages, uo.off, uo.size)...)
			c.homes[id] = leaf
		}
		u := c.newUnit(len(blob))
		c.writeUnitDirect(u, blob)
		u.objects = objs
		for i, uo := range objs {
			u.index[uo.id] = i
		}
		c.units[leaf] = u
	}

	// Free the old unit first so the buddy system can reuse its space for
	// the two smaller successors.
	c.freeUnitExtent(old)
	delete(c.units, left)

	rebuild(left, leftEntries)
	rebuild(right, rightEntries)
}

// objectStats implements layout. Every cluster unit is charged at its full
// allocated size: without the buddy system that is Smax per unit, with it
// the unit's buddy size (section 5.3).
func (c *Cluster) objectStats(st *StorageStats) {
	st.Units = len(c.units)
	for _, u := range c.units {
		st.ObjectPages += u.extent.Pages
		st.DeadBytes += int64(u.dead)
	}
}

// flushObjects implements layout: the in-memory unit tails are written
// through the buffer.
func (c *Cluster) flushObjects() {
	// Deterministic order: the tails' Put order decides buffer eviction and
	// write coalescing, and modelled costs must not depend on map iteration.
	leaves := make([]disk.PageID, 0, len(c.units))
	for leaf := range c.units {
		leaves = append(leaves, leaf)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	for _, leaf := range leaves {
		c.flushTail(c.units[leaf])
	}
}

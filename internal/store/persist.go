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

// This file implements whole-store persistence: Snapshot turns a built
// organization into an Image — a pure-data, exported-field struct holding
// the page contents plus every piece of in-memory state the layers below
// cannot rebuild from the pages (allocator free list, tree shape, object
// maps, open tail pages) — and Restore turns an Image back into a live
// organization on a fresh Env, without re-running construction and without
// charging any modelled I/O. The root package wraps the pair into the
// single-file Save/Open API.
//
// Images are deterministic: all map-backed state is sorted before capture,
// so snapshotting the same store twice yields identical images. A restored
// store reports the same StorageStats and answers every window, point and
// k-NN query with the same result sets as the store it was saved from (the
// differential suite checks this); only the buffer starts cold.

// PageImage is the content of one non-empty disk page.
type PageImage struct {
	ID   int64
	Data []byte
}

// ObjRef associates an object with its location in a sequential file.
type ObjRef struct {
	ID  object.ID
	Ref pagefile.Ref
}

// ObjKey associates an object with its spatial key.
type ObjKey struct {
	ID  object.ID
	Key geom.Rect
}

// ObjHome associates an object with its home data page.
type ObjHome struct {
	ID   object.ID
	Leaf disk.PageID
}

// SecondaryImage is the organization-specific state of a secondary store.
type SecondaryImage struct {
	File        pagefile.SeqFileImage
	Refs        []ObjRef
	Keys        []ObjKey
	Objects     int
	ObjectBytes int64
}

// PrimaryImage is the organization-specific state of a primary store.
type PrimaryImage struct {
	Overflow    pagefile.SeqFileImage
	Refs        []ObjRef
	Keys        []ObjKey
	Objects     int
	ObjectBytes int64
}

// UnitObjectImage locates one (live or tombstoned) object inside a unit.
type UnitObjectImage struct {
	ID   object.ID
	Off  int
	Size int
}

// UnitImage is one cluster unit, including its in-memory tail page.
type UnitImage struct {
	Leaf      disk.PageID
	Extent    pagefile.Extent
	FromBuddy bool
	Used      int
	Dead      int
	Objects   []UnitObjectImage
	TailIdx   int
	TailBuf   []byte
	TailDirty bool
}

// ClusterImage is the organization-specific state of a cluster store.
type ClusterImage struct {
	Config      ClusterConfig
	Buddy       *pagefile.BuddyImage
	Units       []UnitImage
	Homes       []ObjHome
	Keys        []ObjKey
	Objects     int
	ObjectBytes int64
}

// Image kinds.
const (
	KindSecondary = "secondary"
	KindPrimary   = "primary"
	KindCluster   = "cluster"
)

// Image is the complete serializable state of one built organization.
// Exactly one of Secondary, Primary and Cluster is non-nil, matching Kind.
type Image struct {
	Kind     string
	Params   disk.Params
	NumPages int64
	Head     int64
	Pages    []PageImage
	Alloc    pagefile.AllocatorImage
	Tree     rtree.TreeImage

	Secondary *SecondaryImage
	Primary   *PrimaryImage
	Cluster   *ClusterImage
}

// Unwrap peels layers that wrap an organization (such as the write-ahead
// log's store) down to the innermost one. Wrappers advertise themselves by
// implementing Underlying.
func Unwrap(org Organization) Organization {
	for {
		u, ok := org.(interface{ Underlying() Organization })
		if !ok {
			return org
		}
		org = u.Underlying()
	}
}

// Snapshot captures a built organization as an Image. It flushes the store
// first, so the disk pages are current; the caller must not mutate the store
// concurrently. Wrapping layers are unwrapped; only the three organizations
// of this package can be snapshotted.
func Snapshot(org Organization) (*Image, error) {
	org = Unwrap(org)
	org.Flush()
	env := org.Env()
	img := &Image{
		Params:   env.Disk.Params(),
		NumPages: int64(env.Disk.NumPages()),
		Head:     int64(env.Disk.Head()),
		Pages:    dumpPages(env.Disk),
		Alloc:    env.Alloc.Image(),
		Tree:     org.Tree().Image(),
	}
	switch s := org.(type) {
	case *Secondary:
		img.Kind = KindSecondary
		img.Secondary = &SecondaryImage{
			File:        s.file.Image(),
			Refs:        sortedRefs(s.refs),
			Keys:        sortedKeys(s.keys),
			Objects:     s.objects,
			ObjectBytes: s.objectBytes,
		}
	case *Primary:
		img.Kind = KindPrimary
		img.Primary = &PrimaryImage{
			Overflow:    s.overflow.Image(),
			Refs:        sortedRefs(s.refs),
			Keys:        sortedKeys(s.keys),
			Objects:     s.objects,
			ObjectBytes: s.objectBytes,
		}
	case *Cluster:
		img.Kind = KindCluster
		ci := &ClusterImage{
			Config:      s.cfg,
			Units:       sortedUnits(s.units),
			Homes:       sortedHomes(s.homes),
			Keys:        sortedKeys(s.keys),
			Objects:     s.objects,
			ObjectBytes: s.objectBytes,
		}
		if s.buddy != nil {
			b := s.buddy.Image()
			ci.Buddy = &b
		}
		img.Cluster = ci
	default:
		return nil, fmt.Errorf("store: cannot snapshot %T", org)
	}
	return img, nil
}

// Restore rebuilds the organization described by img on env. The
// environment must be completely fresh (empty disk, untouched allocator);
// its backend and buffer size are free to differ from the saved store's —
// the image carries only what must match, notably the disk timing
// parameters. No modelled I/O is charged.
func Restore(img *Image, env *Env) (Organization, error) {
	if env.Disk.NumPages() != 0 {
		return nil, fmt.Errorf("store: Restore needs an empty environment (disk holds %d pages)",
			env.Disk.NumPages())
	}
	if env.Disk.Params() != img.Params {
		return nil, fmt.Errorf("store: environment params %+v differ from the image's %+v",
			env.Disk.Params(), img.Params)
	}
	env.Disk.Grow(int(img.NumPages))
	for _, pg := range img.Pages {
		if pg.ID < 0 || pg.ID >= img.NumPages {
			return nil, fmt.Errorf("store: image page %d outside disk of %d pages", pg.ID, img.NumPages)
		}
		env.Disk.Poke(disk.PageID(pg.ID), pg.Data)
	}
	env.Disk.SetHead(disk.PageID(img.Head))
	env.Alloc.RestoreImage(img.Alloc)

	switch img.Kind {
	case KindSecondary:
		si := img.Secondary
		if si == nil {
			return nil, fmt.Errorf("store: image kind %q without payload", img.Kind)
		}
		s := &Secondary{file: pagefile.RestoreSequentialFile(env.Alloc, si.File), refs: refMap(si.Refs)}
		s.base = base{env: env, tree: rtree.Restore(env.Buf, env.Alloc, rtree.Config{}, img.Tree), lay: s,
			keys: keyMap(si.Keys), objects: si.Objects, objectBytes: si.ObjectBytes}
		return s, nil

	case KindPrimary:
		pi := img.Primary
		if pi == nil {
			return nil, fmt.Errorf("store: image kind %q without payload", img.Kind)
		}
		p := &Primary{overflow: pagefile.RestoreSequentialFile(env.Alloc, pi.Overflow), refs: refMap(pi.Refs),
			maxInline: primaryMaxInline()}
		tree := rtree.Restore(env.Buf, env.Alloc, rtree.Config{VariableLeaf: true}, img.Tree)
		p.base = base{env: env, tree: tree, lay: p, keys: keyMap(pi.Keys), objects: pi.Objects, objectBytes: pi.ObjectBytes}
		return p, nil

	case KindCluster:
		ci := img.Cluster
		if ci == nil {
			return nil, fmt.Errorf("store: image kind %q without payload", img.Kind)
		}
		c := &Cluster{cfg: ci.Config, units: make(map[disk.PageID]*clusterUnit, len(ci.Units)), homes: homeMap(ci.Homes)}
		c.base = base{env: env, lay: c, keys: keyMap(ci.Keys), objects: ci.Objects, objectBytes: ci.ObjectBytes}
		if ci.Buddy != nil {
			buddy, err := pagefile.RestoreBuddySystem(env.Alloc, *ci.Buddy)
			if err != nil {
				return nil, err
			}
			c.buddy = buddy
		}
		for _, ui := range ci.Units {
			u := &clusterUnit{
				extent:    ui.Extent,
				fromBuddy: ui.FromBuddy,
				used:      ui.Used,
				dead:      ui.Dead,
				index:     make(map[object.ID]int),
				tailIdx:   ui.TailIdx,
				tailDirty: ui.TailDirty,
			}
			if len(ui.TailBuf) > 0 {
				u.tailBuf = append([]byte(nil), ui.TailBuf...)
			}
			for _, uo := range ui.Objects {
				u.objects = append(u.objects, unitObject{id: uo.ID, off: uo.Off, size: uo.Size})
			}
			// The live index is derivable: an entry is live iff the object's
			// home is this data page. A later duplicate (delete + reinsert
			// into the same unit) overwrites the tombstoned position. The
			// comma-ok lookup matters: a deleted object is absent from homes,
			// and the zero-value PageID would otherwise match data page 0.
			for pos, uo := range u.objects {
				if leaf, ok := c.homes[uo.id]; ok && leaf == ui.Leaf {
					u.index[uo.id] = pos
				}
			}
			c.units[ui.Leaf] = u
		}
		c.tree = rtree.Restore(env.Buf, env.Alloc, c.treeConfig(), img.Tree)
		return c, nil
	}
	return nil, fmt.Errorf("store: unknown image kind %q", img.Kind)
}

// dumpPages captures all non-empty disk pages without charging I/O, reading
// the disk in large batches (one backend call per batch, not per page — on
// the file backend a per-page dump would be one pread syscall per 4 KB).
// Images alias the pages, which the backend never rewrites.
func dumpPages(d *disk.Disk) []PageImage {
	const batch = 1024
	n := d.NumPages()
	var out []PageImage
	pages := make([][]byte, batch)
	for start := disk.PageID(0); start < n; start += batch {
		run := pages[:min(batch, int(n-start))]
		d.PeekRun(start, run)
		for i, pg := range run {
			if isZeroPage(pg) {
				continue
			}
			out = append(out, PageImage{ID: int64(start) + int64(i), Data: pg})
		}
	}
	return out
}

// isZeroPage reports whether a page holds no data (nil or all zero — the two
// are indistinguishable to every reader, so zero pages are not persisted).
func isZeroPage(pg []byte) bool {
	for _, b := range pg {
		if b != 0 {
			return false
		}
	}
	return true
}

func sortedRefs(m map[object.ID]pagefile.Ref) []ObjRef {
	out := make([]ObjRef, 0, len(m))
	for id, ref := range m {
		out = append(out, ObjRef{ID: id, Ref: ref})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func sortedKeys(m map[object.ID]geom.Rect) []ObjKey {
	out := make([]ObjKey, 0, len(m))
	for id, key := range m {
		out = append(out, ObjKey{ID: id, Key: key})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func sortedHomes(m map[object.ID]disk.PageID) []ObjHome {
	out := make([]ObjHome, 0, len(m))
	for id, leaf := range m {
		out = append(out, ObjHome{ID: id, Leaf: leaf})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func sortedUnits(m map[disk.PageID]*clusterUnit) []UnitImage {
	out := make([]UnitImage, 0, len(m))
	for leaf, u := range m {
		ui := UnitImage{
			Leaf:      leaf,
			Extent:    u.extent,
			FromBuddy: u.fromBuddy,
			Used:      u.used,
			Dead:      u.dead,
			TailIdx:   u.tailIdx,
			TailDirty: u.tailDirty,
		}
		if len(u.tailBuf) > 0 {
			ui.TailBuf = append([]byte(nil), u.tailBuf...)
		}
		for _, uo := range u.objects {
			ui.Objects = append(ui.Objects, UnitObjectImage{ID: uo.id, Off: uo.off, Size: uo.size})
		}
		out = append(out, ui)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Leaf < out[j].Leaf })
	return out
}

func refMap(s []ObjRef) map[object.ID]pagefile.Ref {
	m := make(map[object.ID]pagefile.Ref, len(s))
	for _, r := range s {
		m[r.ID] = r.Ref
	}
	return m
}

func keyMap(s []ObjKey) map[object.ID]geom.Rect {
	m := make(map[object.ID]geom.Rect, len(s))
	for _, k := range s {
		m[k.ID] = k.Key
	}
	return m
}

func homeMap(s []ObjHome) map[object.ID]disk.PageID {
	m := make(map[object.ID]disk.PageID, len(s))
	for _, h := range s {
		m[h.ID] = h.Leaf
	}
	return m
}

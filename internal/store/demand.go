package store

import (
	"spatialcluster/internal/disk"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// DecodeEntryID extracts the object ID and serialized size from a leaf entry
// of the given organization (the primary organization prefixes its payloads
// with a tag byte). Wrappers such as the write-ahead log's store are looked
// through.
func DecodeEntryID(org Organization, e rtree.Entry) (object.ID, int) {
	return layoutOf(org).entry(e.Payload)
}

// Demand describes the minimal I/O required to read a set of objects: the
// stable identities of the storage units that must be accessed (one seek and
// one rotational delay each, in the optimum of Figure 16) and the distinct
// pages that must be transferred.
type Demand struct {
	Units []string
	Pages []disk.PageID
}

// ObjectPageDemand reports the minimal I/O for reading the given objects of
// data page leaf from org, looking through wrappers as DecodeEntryID does.
func ObjectPageDemand(org Organization, leaf disk.PageID, ids []object.ID) Demand {
	return layoutOf(org).demand(leaf, ids)
}

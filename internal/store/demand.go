package store

import (
	"fmt"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// DecodeEntryID extracts the object ID and serialized size from a leaf entry
// of the given organization (the primary organization prefixes its payloads
// with a tag byte).
func DecodeEntryID(org Organization, e rtree.Entry) (object.ID, int) {
	if _, isPrimary := org.(*Primary); isPrimary {
		id, size := decodePayload(e.Payload[1:13])
		if e.Payload[0] == primInline {
			size = len(e.Payload) - 1
		}
		return id, size
	}
	return decodePayload(e.Payload)
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
// data page leaf from org.
func ObjectPageDemand(org Organization, leaf disk.PageID, ids []object.ID) Demand {
	switch o := org.(type) {
	case *Cluster:
		u := o.unitFor(leaf)
		return Demand{
			Units: []string{fmt.Sprintf("u%d", u.extent.Start)},
			Pages: o.requestedPages(u, ids, nil),
		}
	case *Secondary:
		var d Demand
		seen := map[disk.PageID]bool{}
		for _, id := range ids {
			ref, ok := o.refs[id]
			if !ok {
				panic(fmt.Sprintf("store: unknown object %d", id))
			}
			// Every object is an independent access.
			d.Units = append(d.Units, fmt.Sprintf("o%d", id))
			span := ref.Span()
			for p := span.Start; p < span.End(); p++ {
				if !seen[p] {
					seen[p] = true
					d.Pages = append(d.Pages, p)
				}
			}
		}
		return d
	case *Primary:
		d := Demand{
			Units: []string{fmt.Sprintf("l%d", leaf)},
			Pages: []disk.PageID{leaf},
		}
		for _, id := range ids {
			ref, overflow := o.refs[id]
			if !overflow {
				continue // inline: comes with the leaf page
			}
			d.Units = append(d.Units, fmt.Sprintf("o%d", id))
			span := ref.Span()
			for p := span.Start; p < span.End(); p++ {
				d.Pages = append(d.Pages, p)
			}
		}
		return d
	}
	panic(fmt.Sprintf("store: unknown organization %T", org))
}

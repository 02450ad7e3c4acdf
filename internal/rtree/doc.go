// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger [BKSS90], the spatial access method at the heart of all three
// organization models of the paper. Nodes are serialized to 4 KB disk pages
// and accessed through the write-back buffer manager (internal/buffer), so
// every tree operation is charged realistic I/O cost on whatever storage
// backend the disk runs.
//
// The tree's parameters are [BKSS90]'s, the ones the paper evaluates, and
// they are constants: 46-byte entries (DefaultEntrySize) on 4 KB pages give a
// node capacity of M = 89 entries; deletion condenses a node below m = 40 %
// of M = 35 entries; a forced reinsert removes 30 % of an overfull node's
// entries. Every modelled figure and golden test is pinned to them.
//
// Three departures from the textbook R*-tree are configurable, all required
// by the cluster organization (paper section 4.2.1):
//
//   - DisableLeafReinsert turns off forced reinsertion at the data-page
//     level (a reinsert would move a complete spatial object between
//     cluster units),
//   - DisableLeafCondense keeps underfull data pages in place on deletion —
//     a data page is condensed only once it is empty — for the same reason,
//     and
//   - the OnLeafInsert hook lets the organization force a data-page split
//     when the attached cluster unit exceeds its maximum size Smax, while
//     OnLeafSplit reports how the entries were distributed so the
//     organization can redistribute the objects.
//
// The primary organization stores serialized objects directly in the leaves;
// VariableLeaf=true switches leaf capacity from entry count to a byte budget.
//
// Insertion makes exactly [BKSS90]'s choices without its quadratic scans:
// chooseSubtree bounds the overlap-enlargement sums of a leaf-parent node and
// chooseSplit folds every cut's group MBRs once, as prefixes and suffixes.
// Their comments argue why every choice is bit-identical; the quadratic
// originals are kept in choose_test.go as the references a differential test
// and FuzzChooseSubtree hold them to.
//
// Beyond insertion and deletion the tree offers Search and SearchLeaves (the
// filter step of window and point queries, entry by entry or one data page at
// a time), NearestLeaves — the Hjaltason–Samet best-first traversal [HS95]
// that surfaces whole data pages in ascending MBR-MinDist order for the k-NN
// engine in internal/store — and bulk loading in Hilbert order (bulk.go) for
// static global clustering and full rebuilds.
//
// The read path scans pages in place: one entry cursor (node.go) is the only
// reader of the page layout marshalInto writes, Search, SearchLeaves and the
// directory levels of NearestLeaves run the rectangle test on the encoded
// entry and surface only what qualifies, and every Entry.Payload handed out
// — by the scans and by ReadNode/DecodeNode, the decoded form the join and
// the organizations read — is a capacity-capped sub-slice of the page, valid
// for as long as it is held (pages are immutable once buffered, see
// internal/buffer). NearestLeaves decodes the data pages it surfaces into one
// pooled node per browse, pooled with the browse's priority queue; a search
// or browse reads a missing node into page headers pooled with it too; and
// SearchLeaves takes a data page's region from its parent entry (equal to
// the page's MBR, which CheckInvariants asserts). So neither allocates per
// node read or data page, nor unions per data page. A page whose count or length
// prefix overruns it panics naming the page.
//
// The write path allocates only the pages it changes. Insert and Delete
// decode into nodes the Tree owns, one per depth of a descent and recycled
// by the next descent, so there are never more than levels; each has room
// for the entry an overflow appends. Delete finds its entry by scanning pages
// in place, as Search does, and decodes only the root-to-leaf path it found,
// from the pages it already holds, so its buffer reads are a fresh decode's.
// writeNode marshals into a page the Tree owns: a node whose bytes equal the
// page it was decoded from re-buffers that same page — the same Put, dirty
// mark and LRU touch, so the same modelled cost — and only a node that
// changed is copied into a fresh page of its used length (the rest of a page
// reads as zero). Buffered pages therefore stay immutable, and ReadNode and
// DecodeNode still return fresh nodes.
//
// A built tree's in-memory state (root, shape counters, page levels) can be
// captured with Image and revived with Restore over a disk whose pages were
// restored by store.Restore; reopening charges no I/O (persist.go).
package rtree

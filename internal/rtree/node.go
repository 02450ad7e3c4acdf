package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// nodeHeaderSize is the on-page node header: level (1 byte) + count (1 byte).
// With 46-byte entries this yields M = (4096-2)/46 = 89 entries per page,
// matching the paper's parameters (section 4.2: page 4 KB, entry 46 bytes).
const nodeHeaderSize = 2

// rectSize is the serialized size of an MBR (4 float64 coordinates).
const rectSize = 32

// varLenSize is the length prefix of a variable-size leaf payload.
const varLenSize = 2

// Entry is one slot of a node: a rectangle plus either a child page
// reference (directory levels) or an opaque payload (leaf level). The
// organization models put the object identifier and size into the payload.
type Entry struct {
	Rect    geom.Rect
	Child   disk.PageID // directory entry: page of the child node
	Payload []byte      // leaf entry: organization-defined bytes
}

// Node is the in-memory form of one tree node. Level 0 is the leaf (data
// page) level.
type Node struct {
	ID      disk.PageID
	Level   int
	Entries []Entry

	// page is the buffered page the node was decoded from or last written
	// as; writeNode hands it back to the buffer when the node still
	// marshals to exactly these bytes. Never written to.
	page []byte
}

// IsLeaf reports whether the node is a data page.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// Rect returns the minimum bounding rectangle of all entries — the region of
// the data page, which the cluster organization uses as the region of the
// attached cluster unit.
func (n *Node) Rect() geom.Rect {
	r := geom.EmptyRect()
	for i := range n.Entries {
		r = r.Union(n.Entries[i].Rect)
	}
	return r
}

func putRect(buf []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.MaxY))
}

func getRect(buf []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
	}
}

// marshalInto serializes n into buf, a page-sized buffer, and returns the
// bytes it wrote, buf[:used]; every byte of them no entry fills (reserved
// bytes, short payloads) is zero. A node is stored at that used length: the
// cursor bounds-checks every entry, and the rest of the page reads as zero.
func (t *Tree) marshalInto(buf []byte, n *Node) []byte {
	if len(n.Entries) > 255 {
		panic(fmt.Sprintf("rtree: node %d with %d entries exceeds count byte", n.ID, len(n.Entries)))
	}
	clear(buf)
	buf[0] = byte(n.Level)
	buf[1] = byte(len(n.Entries))
	off := nodeHeaderSize
	for i := range n.Entries {
		e := &n.Entries[i]
		putRect(buf[off:], e.Rect)
		off += rectSize
		if n.Level > 0 {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.Child))
			off += DefaultEntrySize - rectSize // child + reserved bytes
			continue
		}
		if t.cfg.VariableLeaf {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.Payload)))
			off += varLenSize
			copy(buf[off:], e.Payload)
			off += len(e.Payload)
		} else {
			copy(buf[off:off+payloadSize], e.Payload)
			off += payloadSize
		}
	}
	if off > disk.PageSize {
		panic(fmt.Sprintf("rtree: node %d serialization of %d bytes overflows the page", n.ID, off))
	}
	return buf[:off]
}

// cursor walks the entries of one encoded node page in place — the only
// reader of the layout marshalInto writes. A nil or empty buffer is the zero
// page — unallocated backends and snapshot restores both elide all-zero
// pages — and a zero page is exactly how an empty leaf node (level 0, no
// entries) marshals, so it reads as one.
type cursor struct {
	page  disk.PageID
	buf   []byte
	level int
	count int // entries on the page
	i     int // entries consumed
	at    int // offset of the current entry
	off   int // offset of the next entry
	fixed int // on-page size of an entry; 0 on a variable leaf
}

func (t *Tree) cursor(id disk.PageID, buf []byte) cursor {
	if len(buf) == 0 {
		return cursor{page: id}
	}
	if len(buf) < nodeHeaderSize {
		panic(fmt.Sprintf("rtree: page %d holds no node (len %d)", id, len(buf)))
	}
	c := cursor{page: id, buf: buf, level: int(buf[0]), count: int(buf[1]), off: nodeHeaderSize}
	if c.level > 0 || !t.cfg.VariableLeaf {
		c.fixed = DefaultEntrySize
	}
	return c
}

// next advances to the next entry and returns its rectangle; ok is false past
// the last one. The entry is bounds-checked once, here, so a corrupt count or
// length prefix names its page instead of dying in a runtime index panic.
func (c *cursor) next() (r geom.Rect, ok bool) {
	if c.i == c.count {
		return geom.Rect{}, false
	}
	end := c.off + c.fixed
	if c.fixed == 0 {
		end = c.off + rectSize + varLenSize
		if end <= len(c.buf) {
			end += int(binary.LittleEndian.Uint16(c.buf[c.off+rectSize:]))
		}
	}
	if end > len(c.buf) {
		panic(fmt.Sprintf("rtree: page %d: entry %d overruns the page (%d of %d bytes)",
			c.page, c.i, end, len(c.buf)))
	}
	c.at, c.off = c.off, end
	c.i++
	return getRect(c.buf[c.at:]), true
}

// child returns the current directory entry's child page.
func (c *cursor) child() disk.PageID {
	return disk.PageID(binary.LittleEndian.Uint64(c.buf[c.at+rectSize:]))
}

// payload returns the current leaf entry's payload: a sub-slice of the page,
// never a copy, capped so an append cannot write into the neighbouring entry.
// Pages are immutable once buffered (see internal/buffer), so it stays valid
// for as long as it is referenced.
func (c *cursor) payload() []byte {
	lo := c.at + rectSize
	if c.fixed == 0 {
		lo += varLenSize
	}
	return c.buf[lo:c.off:c.off]
}

// unmarshalNode decodes the page content of node id into the editable form
// the mutation path, the join and statistics work on. Payloads alias buf.
func (t *Tree) unmarshalNode(id disk.PageID, buf []byte) *Node {
	n := new(Node)
	t.decodeInto(n, id, buf)
	return n
}

// decodeInto is unmarshalNode into n, reusing its entry list when it has the
// room.
func (t *Tree) decodeInto(n *Node, id disk.PageID, buf []byte) {
	c := t.cursor(id, buf)
	n.ID, n.Level, n.Entries, n.page = id, c.level, n.Entries[:0], buf
	if n.Entries == nil || cap(n.Entries) < c.count {
		n.Entries = make([]Entry, 0, c.count)
	}
	for r, ok := c.next(); ok; r, ok = c.next() {
		if c.level > 0 {
			n.Entries = append(n.Entries, Entry{Rect: r, Child: c.child()})
		} else {
			n.Entries = append(n.Entries, Entry{Rect: r, Payload: c.payload()})
		}
	}
}

// entryBytes returns the on-page size of entry e at the given level.
func (t *Tree) entryBytes(level int, e *Entry) int {
	if level > 0 || !t.cfg.VariableLeaf {
		return DefaultEntrySize
	}
	return rectSize + varLenSize + len(e.Payload)
}

// nodeBytes returns the serialized size of the node.
func (t *Tree) nodeBytes(n *Node) int {
	b := nodeHeaderSize
	for i := range n.Entries {
		b += t.entryBytes(n.Level, &n.Entries[i])
	}
	return b
}

// overfull reports whether the node exceeds its capacity: entry count beyond
// M for fixed layouts, byte budget for variable leaves (which are also
// bounded by the count byte).
func (t *Tree) overfull(n *Node) bool {
	if n.Level == 0 && t.cfg.VariableLeaf {
		return t.nodeBytes(n) > disk.PageSize || len(n.Entries) > 255
	}
	return len(n.Entries) > maxEntries
}

// underfull reports whether the node has fallen below the minimum fill used
// by deletion's condense step.
func (t *Tree) underfull(n *Node) bool {
	if n.Level == 0 && t.cfg.VariableLeaf {
		return len(n.Entries) < 2
	}
	return len(n.Entries) < minEntries
}

package store

import (
	"fmt"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/pagefile"
	"spatialcluster/internal/rtree"
)

// Payload tags of the primary organization's leaf entries.
const (
	primInline   byte = 1 // tag + serialized object
	primOverflow byte = 2 // tag + object ID (8) + size (4)
)

// Primary is the primary organization (paper section 3.2.2): the exact
// representations are stored in the data pages of the R*-tree itself, so
// spatial neighbourhood is preserved at the object level and one data page
// holds few objects. Objects not fitting into a data page are stored in a
// separate file where they occupy their pages exclusively, and the data page
// keeps only the approximation plus a pointer.
type Primary struct {
	base
	overflow  *pagefile.SequentialFile
	refs      map[object.ID]pagefile.Ref // overflow objects only
	maxInline int
}

// NewPrimary creates an empty primary organization on env.
func NewPrimary(env *Env) *Primary {
	p := &Primary{
		overflow:  pagefile.NewExclusiveFile(env.Alloc, 0),
		refs:      make(map[object.ID]pagefile.Ref),
		maxInline: primaryMaxInline(),
	}
	p.base = base{env: env, tree: rtree.New(env.Buf, env.Alloc, rtree.Config{VariableLeaf: true}), lay: p,
		keys: make(map[object.ID]geom.Rect)}
	return p
}

// primaryMaxInline is the largest serialized object a data page can hold
// inline: one tagged entry must fit a page next to the node header, the MBR
// and the variable-length prefix.
func primaryMaxInline() int { return disk.PageSize - 2 - 32 - 2 - 1 }

// Name implements Organization.
func (p *Primary) Name() string { return "prim. org." }

// admit implements layout: every object fits, inline or in the overflow file.
func (p *Primary) admit(*object.Object) error { return nil }

// insertLocked implements layout: the object goes into its data page, or to
// the overflow file when it does not fit one. An Update may therefore switch
// an object between inline and overflow storage.
func (p *Primary) insertLocked(o *object.Object, key geom.Rect) error {
	if _, dup := p.keys[o.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, o.ID)
	}
	if o.Size() <= p.maxInline {
		payload := object.Append(append(make([]byte, 0, 1+o.Size()), primInline), o)
		p.tree.Insert(key, payload)
	} else {
		p.enc = object.Append(p.enc[:0], o)
		p.refs[o.ID] = p.overflow.Append(p.enc)
		payload := make([]byte, 13)
		payload[0] = primOverflow
		copy(payload[1:], encodePayload(o.ID, o.Size())[:12])
		p.tree.Insert(key, payload)
	}
	return nil
}

// deleteLocked implements layout. Inline objects vanish with their leaf
// entry; overflow objects additionally return their exclusively owned pages
// to the allocator — the primary organization is the only one that reclaims
// object space immediately on delete.
func (p *Primary) deleteLocked(id object.ID) {
	if ref, overflow := p.refs[id]; overflow {
		span := ref.Span()
		for i := 0; i < span.N; i++ {
			p.env.Buf.Drop(span.Start + disk.PageID(i))
		}
		p.overflow.Discard(ref)
		delete(p.refs, id)
	}
}

// entry implements layout. Both payload kinds carry the object ID right after
// the tag (inline objects serialize their ID first); an inline entry's size is
// that of its serialization.
func (p *Primary) entry(payload []byte) (object.ID, int) {
	id, size := decodePayload(payload[1:13])
	if payload[0] == primInline {
		size = len(payload) - 1
	}
	return id, size
}

// entryView returns the serialization behind a leaf payload: the inline bytes
// themselves (aliasing the data page), or the overflow object read through
// read.
func (p *Primary) entryView(payload []byte, read func(ref pagefile.Ref) []byte) []byte {
	switch payload[0] {
	case primInline:
		return payload[1:]
	case primOverflow:
		id, _ := p.entry(payload)
		ref, ok := p.refs[id]
		if !ok {
			panic(fmt.Sprintf("store: unknown overflow object %d", id))
		}
		return read(ref)
	}
	panic(fmt.Sprintf("store: unknown primary payload tag %d", payload[0]))
}

// views implements layout: the data page already holds the inline objects —
// it bundles its objects whatever the technique — and overflow objects cost
// an independent read each.
func (p *Primary) views(lm rtree.LeafMatch, _ geom.Rect, _ Technique, sc *scratch) [][]byte {
	read := func(ref pagefile.Ref) []byte { return p.overflow.ReadDirect(ref, &sc.tally) }
	sc.views = sc.views[:0]
	for i := range lm.Matched {
		sc.views = append(sc.views, p.entryView(lm.Matched[i].Payload, read))
	}
	return sc.views
}

// PrepareFetch implements Organization: the data page is read through the
// join buffer (it contains the inline objects); overflow objects cost extra
// reads. Views are captured now, deserialization is deferred to the returned
// step.
func (p *Primary) PrepareFetch(leaf disk.PageID, ids []object.ID, m *buffer.Manager, _ Technique) ObjectFetch {
	want := make(map[object.ID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	node := p.tree.DecodeNode(leaf, m.Get(leaf))
	views := make([][]byte, 0, len(ids))
	for _, e := range node.Entries {
		// Unwanted entries are skipped without decoding or extra reads.
		if id, _ := p.entry(e.Payload); !want[id] {
			continue
		}
		views = append(views, p.entryView(e.Payload, func(ref pagefile.Ref) []byte {
			return p.overflow.ReadBuffered(m, ref)
		}))
	}
	return func() []*object.Object { return unmarshalViews(views) }
}

// demand implements layout: the data page is one access, and every overflow
// object another.
func (p *Primary) demand(leaf disk.PageID, ids []object.ID) Demand {
	d := Demand{
		Units: []string{fmt.Sprintf("l%d", leaf)},
		Pages: []disk.PageID{leaf},
	}
	for _, id := range ids {
		ref, overflow := p.refs[id]
		if !overflow {
			continue // inline: comes with the leaf page
		}
		d.Units = append(d.Units, fmt.Sprintf("o%d", id))
		span := ref.Span()
		for pg := span.Start; pg < span.End(); pg++ {
			d.Pages = append(d.Pages, pg)
		}
	}
	return d
}

// objectStats implements layout. DeadBytes stays zero: exclusive pages are
// freed.
func (p *Primary) objectStats(st *StorageStats) {
	st.ObjectPages, st.DeadBytes = p.overflow.PagesUsed(), p.overflow.DeadBytes()
}

// flushObjects implements layout.
func (p *Primary) flushObjects() { p.overflow.Flush() }

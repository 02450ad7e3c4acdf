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
	env      *Env
	tree     *rtree.Tree
	overflow *pagefile.SequentialFile
	refs     map[object.ID]pagefile.Ref // overflow objects only
	keys     map[object.ID]geom.Rect    // spatial key of each live object

	objects     int
	objectBytes int64
	maxInline   int
}

// NewPrimary creates an empty primary organization on env.
func NewPrimary(env *Env) *Primary {
	p := &Primary{
		env:      env,
		tree:     rtree.New(env.Buf, env.Alloc, rtree.Config{VariableLeaf: true}),
		overflow: pagefile.NewExclusiveFile(env.Alloc, 0),
		refs:     make(map[object.ID]pagefile.Ref),
		keys:     make(map[object.ID]geom.Rect),
	}
	p.maxInline = primaryMaxInline()
	return p
}

// primaryMaxInline is the largest serialized object a data page can hold
// inline: one tagged entry must fit a page next to the node header, the MBR
// and the variable-length prefix.
func primaryMaxInline() int { return disk.PageSize - 2 - 32 - 2 - 1 }

// Name implements Organization.
func (p *Primary) Name() string { return "prim. org." }

// Tree implements Organization.
func (p *Primary) Tree() *rtree.Tree { return p.tree }

// Env implements Organization.
func (p *Primary) Env() *Env { return p.env }

// Insert implements Organization.
func (p *Primary) Insert(o *object.Object, key geom.Rect) error {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	return p.insertLocked(o, key)
}

func (p *Primary) insertLocked(o *object.Object, key geom.Rect) error {
	if _, dup := p.keys[o.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, o.ID)
	}
	data := object.Marshal(o)
	if len(data) <= p.maxInline {
		payload := make([]byte, 1+len(data))
		payload[0] = primInline
		copy(payload[1:], data)
		p.tree.Insert(key, payload)
	} else {
		ref := p.overflow.Append(data)
		p.refs[o.ID] = ref
		payload := make([]byte, 13)
		payload[0] = primOverflow
		copy(payload[1:], encodePayload(o.ID, o.Size())[:12])
		p.tree.Insert(key, payload)
	}
	p.keys[o.ID] = key
	p.objects++
	p.objectBytes += int64(o.Size())
	return nil
}

// Delete implements Organization. Inline objects vanish with their leaf
// entry; overflow objects additionally return their exclusively owned pages
// to the allocator — the primary organization is the only one that reclaims
// object space immediately on delete.
func (p *Primary) Delete(id object.ID) bool {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	return p.deleteLocked(id)
}

func (p *Primary) deleteLocked(id object.ID) bool {
	key, ok := p.keys[id]
	if !ok {
		return false
	}
	size := 0
	if !p.tree.Delete(key, func(pl []byte) bool {
		// Both payload kinds carry the object ID right after the tag.
		pid, sz := decodePayload(pl[1:])
		if pid != id {
			return false
		}
		if pl[0] == primInline {
			sz = len(pl) - 1
		}
		size = sz
		return true
	}) {
		panic(fmt.Sprintf("store: object %d known but not in the tree", id))
	}
	if ref, overflow := p.refs[id]; overflow {
		span := ref.Span()
		for i := 0; i < span.N; i++ {
			p.env.Buf.Drop(span.Start + disk.PageID(i))
		}
		p.overflow.Discard(ref)
		delete(p.refs, id)
	}
	delete(p.keys, id)
	p.objects--
	p.objectBytes -= int64(size)
	return true
}

// Update implements Organization: delete plus reinsert (the new version may
// switch between inline and overflow storage).
func (p *Primary) Update(o *object.Object, key geom.Rect) bool {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	if !p.deleteLocked(o.ID) {
		return false
	}
	reinsert(p.insertLocked(o, key))
	return true
}

// entryView returns the serialization behind a leaf payload and its size: the
// inline bytes themselves (aliasing the data page), or the overflow object
// read through read.
func (p *Primary) entryView(payload []byte, read func(ref pagefile.Ref) []byte) ([]byte, int) {
	switch payload[0] {
	case primInline:
		return payload[1:], len(payload) - 1
	case primOverflow:
		id, size := decodePayload(payload[1:13])
		ref, ok := p.refs[id]
		if !ok {
			panic(fmt.Sprintf("store: unknown overflow object %d", id))
		}
		return read(ref), size
	}
	panic(fmt.Sprintf("store: unknown primary payload tag %d", payload[0]))
}

// PointQuery implements Organization.
func (p *Primary) PointQuery(pt geom.Point) QueryResult {
	var res QueryResult
	sc := getScratch()
	defer sc.release()
	res.Cost = measure(p.env.Disk, func() {
		p.tree.SearchPoint(pt, func(e rtree.Entry) bool {
			view, size := p.entryView(e.Payload, p.overflow.ReadDirect)
			res.Candidates++
			res.CandidateBytes += int64(size)
			if v := sc.decode(view); containsPoint(v, pt) {
				res.IDs = append(res.IDs, v.ID)
			}
			return true
		})
	})
	return res
}

// WindowQuery implements Organization. The technique argument is ignored:
// data pages already bundle their objects.
func (p *Primary) WindowQuery(w geom.Rect, _ Technique) QueryResult {
	var res QueryResult
	sc := getScratch()
	defer sc.release()
	res.Cost = measure(p.env.Disk, func() {
		p.tree.Search(w, func(e rtree.Entry) bool {
			view, size := p.entryView(e.Payload, p.overflow.ReadDirect)
			res.Candidates++
			res.CandidateBytes += int64(size)
			if sc.inWindow(e.Rect, view, w) {
				// Both payload kinds carry the object ID right after the tag.
				id, _ := decodePayload(e.Payload[1:])
				res.IDs = append(res.IDs, id)
			}
			return true
		})
	})
	return res
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
		// Both payload kinds carry the object ID right after the tag
		// (inline objects serialize their ID first), so unwanted entries
		// are skipped without decoding or extra reads.
		if id, _ := decodePayload(e.Payload[1:]); !want[id] {
			continue
		}
		view, _ := p.entryView(e.Payload, func(ref pagefile.Ref) []byte {
			return p.overflow.ReadBuffered(m, ref)
		})
		views = append(views, view)
	}
	return func() []*object.Object { return unmarshalViews(views) }
}

// Stats implements Organization.
func (p *Primary) Stats() StorageStats {
	p.env.mu.RLock()
	defer p.env.mu.RUnlock()
	st := StorageStats{
		DirPages:    p.tree.DirPages(),
		LeafPages:   p.tree.LeafPages(),
		ObjectPages: p.overflow.PagesUsed(),
		Objects:     p.objects,
		ObjectBytes: p.objectBytes,
		LiveBytes:   p.objectBytes,
		DeadBytes:   p.overflow.DeadBytes(), // zero: exclusive pages are freed
	}
	st.OccupiedPages = st.DirPages + st.LeafPages + st.ObjectPages
	st.fillUtil()
	return st
}

// Flush implements Organization.
func (p *Primary) Flush() {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	p.overflow.Flush()
	p.tree.Flush()
	p.env.sync()
}

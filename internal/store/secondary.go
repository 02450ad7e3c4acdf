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

// Secondary is the secondary organization (paper section 3.2.1): a regular
// R*-tree stores approximations (MBRs) and pointers, while the exact object
// representations are appended to a sequential file in insertion order. The
// SAM is a primary index for the approximations but only a secondary index
// for the objects, hence spatially adjacent objects are scattered through
// the file and every exact-object access during query processing pays an
// additional seek.
type Secondary struct {
	base
	file *pagefile.SequentialFile
	refs map[object.ID]pagefile.Ref
}

// NewSecondary creates an empty secondary organization on env.
func NewSecondary(env *Env) *Secondary {
	s := &Secondary{
		file: pagefile.NewSequentialFile(env.Alloc, 0),
		refs: make(map[object.ID]pagefile.Ref),
	}
	s.base = base{env: env, tree: rtree.New(env.Buf, env.Alloc, rtree.Config{}), lay: s,
		keys: make(map[object.ID]geom.Rect)}
	return s
}

// Name implements Organization.
func (s *Secondary) Name() string { return "sec. org." }

// admit implements layout: every object fits the sequential file.
func (s *Secondary) admit(*object.Object) error { return nil }

// insertLocked implements layout: the object is appended to the sequential
// file. An Update re-appends the new version at the file's append position,
// so updates scatter the storage — the old bytes stay dead in place.
func (s *Secondary) insertLocked(o *object.Object, key geom.Rect) error {
	if _, dup := s.keys[o.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, o.ID)
	}
	s.enc = object.Append(s.enc[:0], o)
	s.refs[o.ID] = s.file.Append(s.enc)
	s.tree.Insert(key, encodePayload(o.ID, o.Size()))
	return nil
}

// deleteLocked implements layout: the object's bytes become dead space in the
// append-only sequential file — the secondary organization cannot reclaim
// them without compaction, exactly the storage decay the paper's organization
// comparison predicts under churn.
func (s *Secondary) deleteLocked(id object.ID) {
	s.file.Discard(s.refs[id])
	delete(s.refs, id)
}

// entry implements layout.
func (s *Secondary) entry(payload []byte) (object.ID, int) { return decodePayload(payload) }

// ref locates a live object in the sequential file.
func (s *Secondary) ref(id object.ID) pagefile.Ref {
	ref, ok := s.refs[id]
	if !ok {
		panic(fmt.Sprintf("store: unknown object %d", id))
	}
	return ref
}

// views implements layout: every candidate costs an independent random read
// into the sequential file, whatever the technique; the bytes alias the page
// read when the object lies inside one.
func (s *Secondary) views(lm rtree.LeafMatch, _ geom.Rect, _ Technique, sc *scratch) [][]byte {
	sc.views = sc.views[:0]
	for i := range lm.Matched {
		id, _ := decodePayload(lm.Matched[i].Payload)
		sc.views = append(sc.views, s.file.ReadDirect(s.ref(id), &sc.tally))
	}
	return sc.views
}

// PrepareFetch implements Organization: every object is an independent read
// through the join buffer (buffered pages hit for free); the captured page
// bytes are deserialized by the returned assembly step.
func (s *Secondary) PrepareFetch(_ disk.PageID, ids []object.ID, m *buffer.Manager, _ Technique) ObjectFetch {
	views := make([][]byte, 0, len(ids))
	for _, id := range ids {
		views = append(views, s.file.ReadBuffered(m, s.ref(id)))
	}
	return func() []*object.Object { return unmarshalViews(views) }
}

// demand implements layout: every object is an independent access.
func (s *Secondary) demand(_ disk.PageID, ids []object.ID) Demand {
	var d Demand
	seen := map[disk.PageID]bool{}
	for _, id := range ids {
		d.Units = append(d.Units, fmt.Sprintf("o%d", id))
		span := s.ref(id).Span()
		for p := span.Start; p < span.End(); p++ {
			if !seen[p] {
				seen[p] = true
				d.Pages = append(d.Pages, p)
			}
		}
	}
	return d
}

// objectStats implements layout.
func (s *Secondary) objectStats(st *StorageStats) {
	st.ObjectPages, st.DeadBytes = s.file.PagesUsed(), s.file.DeadBytes()
}

// flushObjects implements layout.
func (s *Secondary) flushObjects() { s.file.Flush() }

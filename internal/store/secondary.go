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
	env  *Env
	tree *rtree.Tree
	file *pagefile.SequentialFile
	refs map[object.ID]pagefile.Ref
	keys map[object.ID]geom.Rect // spatial key of each live object

	objects     int
	objectBytes int64
}

// NewSecondary creates an empty secondary organization on env.
func NewSecondary(env *Env) *Secondary {
	return &Secondary{
		env:  env,
		tree: rtree.New(env.Buf, env.Alloc, rtree.Config{}),
		file: pagefile.NewSequentialFile(env.Alloc, 0),
		refs: make(map[object.ID]pagefile.Ref),
		keys: make(map[object.ID]geom.Rect),
	}
}

// Name implements Organization.
func (s *Secondary) Name() string { return "sec. org." }

// Tree implements Organization.
func (s *Secondary) Tree() *rtree.Tree { return s.tree }

// Env implements Organization.
func (s *Secondary) Env() *Env { return s.env }

// Insert implements Organization.
func (s *Secondary) Insert(o *object.Object, key geom.Rect) error {
	s.env.mu.Lock()
	defer s.env.mu.Unlock()
	return s.insertLocked(o, key)
}

func (s *Secondary) insertLocked(o *object.Object, key geom.Rect) error {
	if _, dup := s.refs[o.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, o.ID)
	}
	ref := s.file.Append(object.Marshal(o))
	s.refs[o.ID] = ref
	s.keys[o.ID] = key
	s.tree.Insert(key, encodePayload(o.ID, o.Size()))
	s.objects++
	s.objectBytes += int64(o.Size())
	return nil
}

// Delete implements Organization: the R*-tree entry is removed, and the
// object's bytes become dead space in the append-only sequential file — the
// secondary organization cannot reclaim them without compaction, exactly the
// storage decay the paper's organization comparison predicts under churn.
func (s *Secondary) Delete(id object.ID) bool {
	s.env.mu.Lock()
	defer s.env.mu.Unlock()
	return s.deleteLocked(id)
}

func (s *Secondary) deleteLocked(id object.ID) bool {
	key, ok := s.keys[id]
	if !ok {
		return false
	}
	if !s.tree.Delete(key, func(p []byte) bool {
		pid, _ := decodePayload(p)
		return pid == id
	}) {
		panic(fmt.Sprintf("store: object %d known but not in the tree", id))
	}
	ref := s.refs[id]
	s.file.Discard(ref)
	delete(s.refs, id)
	delete(s.keys, id)
	s.objects--
	s.objectBytes -= int64(ref.Len)
	return true
}

// Update implements Organization: delete plus re-append. The new version
// lands at the file's append position, so updates scatter the storage — the
// old bytes stay dead in place.
func (s *Secondary) Update(o *object.Object, key geom.Rect) bool {
	s.env.mu.Lock()
	defer s.env.mu.Unlock()
	if !s.deleteLocked(o.ID) {
		return false
	}
	reinsert(s.insertLocked(o, key))
	return true
}

// readObjectDirect fetches one serialized exact representation with an
// independent random read (the secondary organization's access pattern in
// queries); the bytes alias the page read when the object lies inside one.
func (s *Secondary) readObjectDirect(id object.ID) []byte {
	ref, ok := s.refs[id]
	if !ok {
		panic(fmt.Sprintf("store: unknown object %d", id))
	}
	return s.file.ReadDirect(ref)
}

// PointQuery implements Organization.
func (s *Secondary) PointQuery(p geom.Point) QueryResult {
	var res QueryResult
	sc := getScratch()
	defer sc.release()
	res.Cost = measure(s.env.Disk, func() {
		s.tree.SearchPoint(p, func(e rtree.Entry) bool {
			id, size := decodePayload(e.Payload)
			res.Candidates++
			res.CandidateBytes += int64(size)
			if containsPoint(sc.decode(s.readObjectDirect(id)), p) {
				res.IDs = append(res.IDs, id)
			}
			return true
		})
	})
	return res
}

// WindowQuery implements Organization. The technique argument is ignored:
// the secondary organization can only read objects one by one.
func (s *Secondary) WindowQuery(w geom.Rect, _ Technique) QueryResult {
	var res QueryResult
	sc := getScratch()
	defer sc.release()
	res.Cost = measure(s.env.Disk, func() {
		s.tree.Search(w, func(e rtree.Entry) bool {
			id, size := decodePayload(e.Payload)
			res.Candidates++
			res.CandidateBytes += int64(size)
			if sc.inWindow(e.Rect, s.readObjectDirect(id), w) {
				res.IDs = append(res.IDs, id)
			}
			return true
		})
	})
	return res
}

// PrepareFetch implements Organization: every object is an independent read
// through the join buffer (buffered pages hit for free); the captured page
// bytes are deserialized by the returned assembly step.
func (s *Secondary) PrepareFetch(_ disk.PageID, ids []object.ID, m *buffer.Manager, _ Technique) ObjectFetch {
	views := make([][]byte, 0, len(ids))
	for _, id := range ids {
		ref, ok := s.refs[id]
		if !ok {
			panic(fmt.Sprintf("store: unknown object %d", id))
		}
		views = append(views, s.file.ReadBuffered(m, ref))
	}
	return func() []*object.Object { return unmarshalViews(views) }
}

// Stats implements Organization.
func (s *Secondary) Stats() StorageStats {
	s.env.mu.RLock()
	defer s.env.mu.RUnlock()
	st := StorageStats{
		DirPages:    s.tree.DirPages(),
		LeafPages:   s.tree.LeafPages(),
		ObjectPages: s.file.PagesUsed(),
		Objects:     s.objects,
		ObjectBytes: s.objectBytes,
		LiveBytes:   s.objectBytes,
		DeadBytes:   s.file.DeadBytes(),
	}
	st.OccupiedPages = st.DirPages + st.LeafPages + st.ObjectPages
	st.fillUtil()
	return st
}

// Flush implements Organization.
func (s *Secondary) Flush() {
	s.env.mu.Lock()
	defer s.env.mu.Unlock()
	s.file.Flush()
	s.tree.Flush()
	s.env.sync()
}

package buffer

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"spatialcluster/internal/disk"
)

// Stats counts buffer activity.
type Stats struct {
	Hits      int64 // requests satisfied from the buffer
	Misses    int64 // requests that had to touch the disk
	Evictions int64 // frames evicted (clean or dirty)
	Flushed   int64 // dirty pages written back
}

// Policy selects the replacement policy of a Manager.
type Policy int

const (
	// PolicyLRU is plain least-recently-used replacement (the default).
	PolicyLRU Policy = iota
	// Policy2Q is scan-resistant 2Q admission: a page faults into a FIFO
	// probationary queue (A1in) and earns main-queue (Am) residency only
	// when it faults again while its ID is still on the ghost list (A1out)
	// of recently evicted probationers. A one-pass scan churns through
	// A1in without displacing the hot set in Am.
	Policy2Q
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case Policy2Q:
		return "2q"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name as used by configs and CLIs; the empty
// string selects PolicyLRU.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return PolicyLRU, nil
	case "2q":
		return Policy2Q, nil
	}
	return 0, fmt.Errorf("buffer: unknown policy %q (want lru or 2q)", name)
}

// The frame queues of Policy2Q. Under PolicyLRU every frame lives in qAm.
const (
	qAm = 0 // main queue, LRU ordered
	qA1 = 1 // probationary queue, FIFO ordered
)

// numShards is the number of lock shards; shardBits is its base-2 logarithm
// (the hash keeps the top shardBits bits). The zero-length array assertions
// keep the two in sync at compile time.
const (
	numShards = 16
	shardBits = 4
)

var (
	_ [numShards - 1<<shardBits]struct{}
	_ [1<<shardBits - numShards]struct{}
)

type frame struct {
	id         disk.PageID
	data       []byte
	dirty      bool
	pins       int    // > 0 exempts the frame from eviction
	queue      byte   // qAm or qA1 (always qAm under PolicyLRU)
	stamp      uint64 // global clock value of the last touch (A1in: insertion)
	prev, next *frame // per-shard queue list; head = most recent
}

// flist is one intrusive frame list (an LRU or FIFO queue of a shard).
type flist struct {
	head *frame // most recent within this shard
	tail *frame // least recent within this shard
}

// ghostList is a shard's bounded FIFO of page IDs recently evicted from
// A1in (2Q's A1out). Promotion removes the map entry and leaves the FIFO
// slot stale; the bound counts live map entries.
type ghostList struct {
	ids   map[disk.PageID]struct{}
	fifo  []disk.PageID
	start int
}

// add records id, dropping the oldest entries beyond bound.
func (g *ghostList) add(id disk.PageID, bound int) {
	if bound <= 0 {
		return
	}
	if g.ids == nil {
		g.ids = make(map[disk.PageID]struct{})
	}
	if _, ok := g.ids[id]; ok {
		return
	}
	g.ids[id] = struct{}{}
	g.fifo = append(g.fifo, id)
	for len(g.ids) > bound {
		old := g.fifo[g.start]
		g.start++
		delete(g.ids, old)
	}
	if g.start > 64 && g.start > len(g.fifo)/2 {
		g.fifo = append(g.fifo[:0:0], g.fifo[g.start:]...)
		g.start = 0
	}
}

// remove reports and forgets a ghost hit.
func (g *ghostList) remove(id disk.PageID) bool {
	if _, ok := g.ids[id]; !ok {
		return false
	}
	delete(g.ids, id)
	return true
}

// shard is one lock domain: a slice of the frame map plus its queue lists
// and ghost list.
type shard struct {
	mu     sync.Mutex
	frames map[disk.PageID]*frame
	lists  [2]flist // indexed by frame.queue
	ghost  ghostList
}

// Manager is a sharded write-back page buffer over one disk, replacing with
// plain LRU or scan-resistant 2Q admission (see Policy).
type Manager struct {
	d        *disk.Disk
	capacity int
	policy   Policy
	kin      int // 2Q: A1in size from which eviction prefers probationers
	ghostCap int // 2Q: live ghost entries kept per shard
	shards   [numShards]shard

	size   atomic.Int64  // total buffered frames across shards
	sizeA1 atomic.Int64  // frames in the probationary queue
	clock  atomic.Uint64 // global LRU clock

	// writeMu serializes dirty write-back (eviction and Flush) because write
	// clustering spans shards: the maximal dirty run around a victim crosses
	// shard boundaries.
	writeMu sync.Mutex
	// writeBacks counts write-backs and, unlike the statistics below, is
	// never reset: ExecutePlan reads it to learn that the disk changed under
	// a run it has already read.
	writeBacks atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	flushed   atomic.Int64
}

// New creates an LRU buffer of the given capacity in pages over d. Capacity
// must be positive.
func New(d *disk.Disk, capacity int) *Manager {
	return NewWithPolicy(d, capacity, PolicyLRU)
}

// NewWithPolicy creates a buffer with an explicit replacement policy. Under
// Policy2Q the probationary queue targets a quarter of the capacity and the
// ghost lists remember half a capacity's worth of evicted probationers (the
// classic 2Q tuning).
func NewWithPolicy(d *disk.Disk, capacity int, policy Policy) *Manager {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %d", capacity))
	}
	m := &Manager{
		d:        d,
		capacity: capacity,
		policy:   policy,
		kin:      max(1, capacity/4),
		ghostCap: max(1, capacity/(2*numShards)),
	}
	for i := range m.shards {
		m.shards[i].frames = make(map[disk.PageID]*frame)
	}
	return m
}

// Policy returns the buffer's replacement policy.
func (m *Manager) Policy() Policy { return m.policy }

// shardOf maps a page to its lock shard (Fibonacci hash of the PageID).
func (m *Manager) shardOf(id disk.PageID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &m.shards[h>>(64-shardBits)]
}

// Disk returns the underlying disk.
func (m *Manager) Disk() *disk.Disk { return m.d }

// Capacity returns the buffer capacity in pages.
func (m *Manager) Capacity() int { return m.capacity }

// Len returns the number of buffered pages.
func (m *Manager) Len() int { return int(m.size.Load()) }

// ProbationLen returns the number of frames in the probationary queue
// (always 0 under PolicyLRU).
func (m *Manager) ProbationLen() int { return int(m.sizeA1.Load()) }

// GhostLen returns the number of live ghost-list entries across shards
// (always 0 under PolicyLRU).
func (m *Manager) GhostLen() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.ghost.ids)
		s.mu.Unlock()
	}
	return n
}

// GhostCapacity returns the per-shard ghost-list bound times the shard count
// (the maximum GhostLen can reach).
func (m *Manager) GhostCapacity() int {
	if m.policy != Policy2Q {
		return 0
	}
	return m.ghostCap * numShards
}

// Stats returns a snapshot of the buffer statistics.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Flushed:   m.flushed.Load(),
	}
}

// ResetStats clears the buffer statistics.
func (m *Manager) ResetStats() {
	m.hits.Store(0)
	m.misses.Store(0)
	m.evictions.Store(0)
	m.flushed.Store(0)
}

// --- per-shard queue list maintenance (caller holds s.mu) ---

func (l *flist) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (l *flist) pushFront(f *frame) {
	f.prev, f.next = nil, l.head
	if l.head != nil {
		l.head.prev = f
	}
	l.head = f
	if l.tail == nil {
		l.tail = f
	}
}

// touchLocked records a hit on f: Am frames are promoted to shard-MRU and
// restamped; A1in frames keep their FIFO position and insertion stamp (2Q's
// scan resistance — a probationer earns Am residency only through the ghost
// list, not by being re-hit while resident).
func (m *Manager) touchLocked(s *shard, f *frame) {
	if f.queue == qA1 {
		return
	}
	f.stamp = m.clock.Add(1)
	l := &s.lists[qAm]
	if l.head == f {
		return
	}
	l.unlink(f)
	l.pushFront(f)
}

// --- eviction ---

// oldestUnpinned returns this list's eviction candidate: the least recently
// used frame without pins. Pinned frames near the tail are skipped; they keep
// their position and become candidates again once unpinned.
func (l *flist) oldestUnpinned() *frame {
	for f := l.tail; f != nil; f = f.prev {
		if f.pins == 0 {
			return f
		}
	}
	return nil
}

// victimIn returns the globally least recent unpinned frame of queue q.
// Because each shard's list is ordered by the global clock, that is the
// minimum-stamp frame among the shards' tail candidates.
func (m *Manager) victimIn(q int) (disk.PageID, bool) {
	var victimID disk.PageID
	var victimStamp uint64
	found := false
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		if f := s.lists[q].oldestUnpinned(); f != nil && (!found || f.stamp < victimStamp) {
			victimID, victimStamp, found = f.id, f.stamp, true
		}
		s.mu.Unlock()
	}
	return victimID, found
}

// evictOne removes one unpinned frame, writing it back first if it is dirty.
// Under PolicyLRU the victim is the globally least recently used frame.
// Under Policy2Q the oldest probationer goes first once A1in has reached its
// target size (its ID moves to the shard's ghost list), otherwise the Am LRU
// frame; either queue serves as fallback when the preferred one is all
// pinned. It returns the evicted frame, unlinked and unreachable from the
// buffer, for the caller to reuse; nil when every buffered frame is pinned (the
// caller then overflows capacity instead of failing). No shard lock may be held.
func (m *Manager) evictOne() *frame {
	for {
		prefer := qAm
		if m.policy == Policy2Q && m.sizeA1.Load() >= int64(m.kin) {
			prefer = qA1
		}
		victimID, found := m.victimIn(prefer)
		if !found {
			victimID, found = m.victimIn(1 - prefer)
		}
		if !found {
			return nil
		}

		s := m.shardOf(victimID)
		s.mu.Lock()
		f, ok := s.frames[victimID]
		if !ok || f.pins > 0 {
			s.mu.Unlock()
			continue // raced away or pinned meanwhile: pick a new victim
		}
		if f.dirty {
			// Write back outside the shard lock: write clustering probes
			// neighbouring pages that live in other shards.
			s.mu.Unlock()
			m.writeBack(victimID)
			s.mu.Lock()
			f, ok = s.frames[victimID]
			if !ok || f.pins > 0 || f.dirty {
				s.mu.Unlock()
				continue // re-dirtied or raced: start over
			}
		}
		s.lists[f.queue].unlink(f)
		delete(s.frames, victimID)
		if f.queue == qA1 {
			m.sizeA1.Add(-1)
			if m.policy == Policy2Q {
				s.ghost.add(victimID, m.ghostCap)
			}
		}
		m.size.Add(-1)
		m.evictions.Add(1)
		s.mu.Unlock()
		return f
	}
}

// claimDirty atomically marks page id clean and returns its buffered data if
// the page is resident and dirty; the returned slice is what must be written.
func (m *Manager) claimDirty(id disk.PageID) ([]byte, bool) {
	s := m.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok || !f.dirty {
		return nil, false
	}
	f.dirty = false
	return f.data, true
}

// writeBack writes the maximal run of buffered dirty pages that is
// physically consecutive and includes page id, as one write request (write
// clustering). The run's frames stay buffered but become clean. A no-op when
// the page is no longer dirty.
func (m *Manager) writeBack(id disk.PageID) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()

	center, ok := m.claimDirty(id)
	if !ok {
		return
	}
	var before, after [][]byte
	start, end := id, id
	for {
		data, ok := m.claimDirty(start - 1)
		if !ok {
			break
		}
		start--
		before = append(before, data)
	}
	for {
		data, ok := m.claimDirty(end + 1)
		if !ok {
			break
		}
		end++
		after = append(after, data)
	}
	n := int(end - start + 1)
	data := make([][]byte, 0, n)
	for i := len(before) - 1; i >= 0; i-- {
		data = append(data, before[i])
	}
	data = append(data, center)
	data = append(data, after...)
	m.d.WriteRun(start, data)
	m.writeBacks.Add(1)
	m.flushed.Add(int64(n))
}

// --- insertion ---

// insert places data for page id into the buffer, evicting as necessary.
func (m *Manager) insert(id disk.PageID, data []byte, dirty bool) {
	s := m.shardOf(id)
	s.mu.Lock()
	overflow := false
	var f *frame // the frame an eviction below freed: a miss on a full buffer allocates none
	for {
		// Re-checked on every iteration: while the shard lock was dropped
		// for eviction, a racing insert may have created the frame.
		if f, ok := s.frames[id]; ok {
			f.data = data
			f.dirty = f.dirty || dirty
			m.touchLocked(s, f)
			s.mu.Unlock()
			return
		}
		if overflow || m.size.Load() < int64(m.capacity) {
			break
		}
		// Evict without holding our shard lock: the victim may live in any
		// shard (including this one) and a dirty victim needs cross-shard
		// write clustering.
		s.mu.Unlock()
		if f = m.evictOne(); f == nil {
			// Every frame is pinned: overflow capacity rather than fail
			// (after one more racing-insert re-check at the loop top).
			overflow = true
		}
		s.mu.Lock()
	}
	q := byte(qAm)
	if m.policy == Policy2Q && !s.ghost.remove(id) {
		q = qA1 // unknown page: probation first; a ghost hit earns Am
	}
	if f == nil {
		f = new(frame)
	}
	*f = frame{id: id, data: data, dirty: dirty, queue: q, stamp: m.clock.Add(1)}
	s.frames[id] = f
	s.lists[q].pushFront(f)
	if q == qA1 {
		m.sizeA1.Add(1)
	}
	m.size.Add(1)
	s.mu.Unlock()
}

// --- lookups ---

// Contains reports whether page id is buffered, without touching the LRU
// order or the statistics.
func (m *Manager) Contains(id disk.PageID) bool {
	s := m.shardOf(id)
	s.mu.Lock()
	_, ok := s.frames[id]
	s.mu.Unlock()
	return ok
}

// Touch returns the buffered content of page id if present, promoting it to
// most recently used. It never touches the disk.
func (m *Manager) Touch(id disk.PageID) ([]byte, bool) {
	s := m.shardOf(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	m.touchLocked(s, f)
	data := f.data
	s.mu.Unlock()
	return data, true
}

// Peek returns the buffered content of page id without promoting it, without
// statistics and without disk access: a read that leaves the replacement
// state and the modelled costs untouched (assertions, invariant checks,
// observing a pinned frame).
func (m *Manager) Peek(id disk.PageID) ([]byte, bool) {
	s := m.shardOf(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	var data []byte
	if ok {
		data = f.data
	}
	s.mu.Unlock()
	return data, ok
}

// Get returns the content of page id, reading it from disk on a miss (one
// single-page read request).
func (m *Manager) Get(id disk.PageID) []byte {
	if data, ok := m.Touch(id); ok {
		m.hits.Add(1)
		return data
	}
	m.misses.Add(1)
	data := m.d.ReadRun(id, 1)[0]
	m.insert(id, data, false)
	return data
}

// Put stores page content in the buffer and marks it dirty; it is written
// back on eviction or Flush.
func (m *Manager) Put(id disk.PageID, data []byte) {
	m.insert(id, data, true)
}

// --- pinning ---

// Pin marks page id as exempt from eviction and reports whether the page was
// resident; pins nest and must be balanced with Unpin. Pinning does not
// promote the frame: a pinned page keeps its LRU position and simply cannot
// be chosen as a victim.
func (m *Manager) Pin(id disk.PageID) bool {
	s := m.shardOf(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	if ok {
		f.pins++
	}
	s.mu.Unlock()
	return ok
}

// Unpin releases one pin of page id. It panics on unbalanced use; a page
// that was never pinned (Pin returned false) must not be unpinned.
func (m *Manager) Unpin(id disk.PageID) {
	s := m.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin(%d) without matching Pin", id))
	}
	f.pins--
}

// PinPages pins every page of ids that is resident and returns the pinned
// subset (the caller unpins exactly that subset with UnpinPages, leaving ids
// alone in between: when every page was resident the subset is ids itself).
func (m *Manager) PinPages(ids []disk.PageID) []disk.PageID {
	for i, id := range ids {
		if m.Pin(id) {
			continue
		}
		pinned := slices.Clone(ids[:i])
		for _, id := range ids[i+1:] {
			if m.Pin(id) {
				pinned = append(pinned, id)
			}
		}
		return pinned
	}
	return ids
}

// UnpinPages releases one pin on every listed page.
func (m *Manager) UnpinPages(ids []disk.PageID) {
	for _, id := range ids {
		m.Unpin(id)
	}
}

// --- bulk operations ---

// Missing partitions pages into buffered (touched as hits) and missing ones;
// a page listed twice counts once, and the missing IDs are returned sorted,
// appended to missing[:0] (nil allocates as needed).
func (m *Manager) Missing(pages, missing []disk.PageID) []disk.PageID {
	missing = missing[:0]
	var hi disk.PageID // highest page seen so far
	for i, id := range pages {
		// Callers pass a unit's handful of pages, mostly ascending: a scan
		// of the earlier ones finds a repeat without a set per call.
		if i > 0 && id <= hi && slices.Contains(pages[:i], id) {
			continue
		}
		hi = max(hi, id)
		if _, ok := m.Touch(id); ok {
			m.hits.Add(1)
		} else {
			m.misses.Add(1)
			missing = append(missing, id)
		}
	}
	slices.Sort(missing)
	return missing
}

// admit inserts freshly read page content, except that a resident dirty frame
// keeps its newer data (the disk is only the source of truth for clean
// pages).
func (m *Manager) admit(id disk.PageID, data []byte) {
	s := m.shardOf(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if !f.dirty {
			f.data = data
		}
		m.touchLocked(s, f)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	m.insert(id, data, false)
}

// ExecutePlan executes a read schedule as one uninterrupted access to a
// storage unit: the first run is a fresh request (seek + latency), every
// further run is chained (latency only). If vector is true, only pages
// listed in requested enter the buffer (vector read); otherwise every
// transferred page does (normal read). A clean page already buffered gets its
// frame's slice replaced, never written into (the package comment states the
// contract), which is harmless because the disk is the source of truth for
// clean pages.
//
// A page of the run that is buffered dirty when the run is read keeps its
// frame's newer data. If that frame is evicted — written back — before the
// page's turn to be admitted (by an earlier page of this very run on a small
// buffer, or by a concurrent reader), what was read for it is older than the
// disk: the page is then looked at again, uncharged, instead of admitting
// the stale copy as a clean frame.
func (m *Manager) ExecutePlan(runs []disk.Run, requested []disk.PageID, vector bool) {
	for i, r := range runs {
		epoch := m.writeBacks.Load()
		var data [][]byte
		if i == 0 {
			data = m.d.ReadRun(r.Start, r.N)
		} else {
			data = m.d.ReadRunChained(r.Start, r.N)
		}
		for j := 0; j < r.N; j++ {
			id := r.Start + disk.PageID(j)
			if vector && !slices.Contains(requested, id) {
				continue
			}
			page := data[j]
			if m.writeBacks.Load() != epoch {
				page = m.d.Peek(id)
			}
			m.admit(id, page)
		}
	}
}

// dirtyPages returns the sorted IDs of all currently dirty pages.
func (m *Manager) dirtyPages() []disk.PageID {
	var dirty []disk.PageID
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for id, f := range s.frames {
			if f.dirty {
				dirty = append(dirty, id)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

// Flush writes back all dirty pages, coalescing physically consecutive dirty
// pages into single write requests, in ascending page order.
func (m *Manager) Flush() {
	for _, id := range m.dirtyPages() {
		m.writeBack(id) // no-op for pages cleaned by an earlier run
	}
}

// Drop discards page id from the buffer without writing it back. The caller
// must know the page content is obsolete (e.g. a freed node page); dropping
// a pinned page is a programming error.
func (m *Manager) Drop(id disk.PageID) {
	s := m.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return
	}
	if f.pins > 0 {
		panic(fmt.Sprintf("buffer: Drop(%d) of a pinned page", id))
	}
	s.lists[f.queue].unlink(f)
	delete(s.frames, id)
	if f.queue == qA1 {
		m.sizeA1.Add(-1)
	}
	m.size.Add(-1)
}

// Clear flushes all dirty pages and empties the buffer. No page may be
// pinned.
func (m *Manager) Clear() {
	m.Flush()
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for id, f := range s.frames {
			if f.pins > 0 {
				panic(fmt.Sprintf("buffer: Clear with page %d still pinned", id))
			}
			_ = id
		}
		for _, f := range s.frames {
			if f.queue == qA1 {
				m.sizeA1.Add(-1)
			}
		}
		m.size.Add(-int64(len(s.frames)))
		s.frames = make(map[disk.PageID]*frame)
		s.lists = [2]flist{}
		s.ghost = ghostList{}
		s.mu.Unlock()
	}
}

// Retain flushes all dirty pages and then drops every buffered page for
// which keep returns false. Experiments use it to cool the data and object
// pages between queries while the (small, hot) directory of the access
// method stays cached.
func (m *Manager) Retain(keep func(disk.PageID) bool) {
	m.Flush()
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		var drop []disk.PageID
		for id := range s.frames {
			if !keep(id) {
				drop = append(drop, id)
			}
		}
		s.mu.Unlock()
		for _, id := range drop {
			m.Drop(id)
		}
	}
}

package buffer

import (
	"fmt"
	"slices"
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

// The 2Q ghost list is kept in 1<<ghostBits parts keyed by a Fibonacci hash
// of the PageID, each bounded on its own. Which evicted probationers are
// still remembered — and so which pages a fault admits straight to Am —
// depends on that partition, so it is part of the policy: one list with the
// summed bound would admit differently.
const ghostBits = 4

type frame struct {
	id         disk.PageID
	data       []byte
	dirty      bool
	pins       int    // > 0 exempts the frame from eviction
	queue      byte   // qAm or qA1 (always qAm under PolicyLRU)
	prev, next *frame // queue list; head = most recent
}

// flist is one intrusive frame list (the LRU or the FIFO queue).
type flist struct {
	head *frame // most recent
	tail *frame // least recent
}

// ghostList is one part's bounded FIFO of page IDs recently evicted from
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

// Manager is a write-back page buffer over one disk, replacing with plain
// LRU or scan-resistant 2Q admission (see Policy).
type Manager struct {
	d        *disk.Disk
	capacity int
	policy   Policy
	kin      int // 2Q: A1in size from which eviction prefers probationers
	ghostCap int // 2Q: live ghost entries kept per ghost part

	// mu, the buffer latch, guards the frame table, the queues, the ghost
	// lists and the two sizes; it is never held across disk I/O.
	mu     sync.Mutex
	frames []*frame // indexed by PageID, grown on demand; nil = not buffered
	lists  [2]flist // indexed by frame.queue
	ghosts [1 << ghostBits]ghostList
	size   int // buffered frames
	sizeA1 int // frames in the probationary queue

	// writeMu serializes dirty write-back (eviction and Flush), so a run
	// claimed clean reaches the disk before the next run is claimed.
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
	return &Manager{
		d:        d,
		capacity: capacity,
		policy:   policy,
		kin:      max(1, capacity/4),
		ghostCap: max(1, capacity/(2<<ghostBits)),
	}
}

// Policy returns the buffer's replacement policy.
func (m *Manager) Policy() Policy { return m.policy }

// Disk returns the underlying disk.
func (m *Manager) Disk() *disk.Disk { return m.d }

// Capacity returns the buffer capacity in pages.
func (m *Manager) Capacity() int { return m.capacity }

// Len returns the number of buffered pages.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// ProbationLen returns the number of frames in the probationary queue
// (always 0 under PolicyLRU).
func (m *Manager) ProbationLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sizeA1
}

// GhostLen returns the number of live ghost-list entries (always 0 under
// PolicyLRU).
func (m *Manager) GhostLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.ghosts {
		n += len(m.ghosts[i].ids)
	}
	return n
}

// GhostCapacity returns the maximum GhostLen can reach: the per-part bound
// times the number of ghost-list parts.
func (m *Manager) GhostCapacity() int {
	if m.policy != Policy2Q {
		return 0
	}
	return m.ghostCap << ghostBits
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

// --- frame table and queue maintenance (caller holds m.mu) ---

// lookup returns the frame of page id, nil when the page is not buffered
// (including IDs outside the table, such as the -1 a write-back run probes).
func (m *Manager) lookup(id disk.PageID) *frame {
	if uint64(id) >= uint64(len(m.frames)) {
		return nil
	}
	return m.frames[id]
}

// ghostOf returns the ghost-list part of page id.
func (m *Manager) ghostOf(id disk.PageID) *ghostList {
	return &m.ghosts[uint64(id)*0x9E3779B97F4A7C15>>(64-ghostBits)]
}

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

// touchLocked records a hit on f: Am frames are promoted to MRU; A1in frames
// keep their FIFO position (2Q's scan resistance — a probationer earns Am
// residency only through the ghost list, not by being re-hit while resident).
func (m *Manager) touchLocked(f *frame) {
	l := &m.lists[qAm]
	if f.queue == qA1 || l.head == f {
		return
	}
	l.unlink(f)
	l.pushFront(f)
}

// removeLocked unlinks f from its queue and the frame table.
func (m *Manager) removeLocked(f *frame) {
	m.lists[f.queue].unlink(f)
	m.frames[f.id] = nil
	m.size--
	if f.queue == qA1 {
		m.sizeA1--
	}
}

// --- eviction ---

// evictOne removes one unpinned frame, writing it back first if it is dirty.
// Under PolicyLRU the victim is the least recently used unpinned frame.
// Under Policy2Q the oldest probationer goes first once A1in has reached its
// target size (its ID moves to a ghost list), otherwise the Am LRU frame;
// either queue serves as fallback when the preferred one is all pinned. It
// returns the evicted frame, unlinked and unreachable from the buffer, for
// the caller to reuse; nil when every buffered frame is pinned (the caller
// then overflows capacity instead of failing). The caller holds m.mu, which a
// dirty victim's write-back releases: the victim is then picked again. The
// write-back is charged to t, the tally of the request that needed the frame.
func (m *Manager) evictOne(t *disk.Tally) *frame {
	for {
		prefer := qAm
		if m.policy == Policy2Q && m.sizeA1 >= m.kin {
			prefer = qA1
		}
		f := m.lists[prefer].oldestUnpinned()
		if f == nil {
			f = m.lists[1-prefer].oldestUnpinned()
		}
		if f == nil {
			return nil
		}
		if f.dirty {
			id := f.id
			m.mu.Unlock()
			m.writeBack(id, t)
			m.mu.Lock()
			continue
		}
		m.removeLocked(f)
		if f.queue == qA1 {
			m.ghostOf(f.id).add(f.id, m.ghostCap)
		}
		m.evictions.Add(1)
		return f
	}
}

// dirtyLocked reports whether page id is buffered dirty.
func (m *Manager) dirtyLocked(id disk.PageID) bool {
	f := m.lookup(id)
	return f != nil && f.dirty
}

// writeBack writes the maximal run of buffered dirty pages that is
// physically consecutive and includes page id, as one write request (write
// clustering), charged to t. The run's frames stay buffered but become clean.
// A no-op when the page is no longer dirty. The caller must not hold m.mu.
func (m *Manager) writeBack(id disk.PageID, t *disk.Tally) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()

	m.mu.Lock()
	if !m.dirtyLocked(id) {
		m.mu.Unlock()
		return
	}
	start, end := id, id
	for m.dirtyLocked(start - 1) {
		start--
	}
	for m.dirtyLocked(end + 1) {
		end++
	}
	data := make([][]byte, 0, end-start+1)
	for p := start; p <= end; p++ {
		f := m.frames[p]
		f.dirty = false
		data = append(data, f.data)
	}
	m.mu.Unlock()

	m.d.WriteRun(start, data, t)
	m.writeBacks.Add(1)
	m.flushed.Add(int64(len(data)))
}

// --- insertion ---

// insert places data for page id into the buffer, evicting as necessary. A
// buffered frame takes data unless it is dirty and data is a clean copy (the
// disk is only the source of truth for clean pages). An eviction's write-back
// is charged to t.
func (m *Manager) insert(id disk.PageID, data []byte, dirty bool, t *disk.Tally) {
	if id < 0 {
		panic(fmt.Sprintf("buffer: negative page ID %d", id))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	overflow := false
	var f *frame // the frame an eviction below freed: a miss on a full buffer allocates none
	for {
		// Re-checked on every iteration: while a dirty victim was written
		// back, a racing insert may have created the frame.
		if r := m.lookup(id); r != nil {
			if dirty || !r.dirty {
				r.data = data
			}
			r.dirty = r.dirty || dirty
			m.touchLocked(r)
			return
		}
		if overflow || m.size < m.capacity {
			break
		}
		if f = m.evictOne(t); f == nil {
			// Every frame is pinned: overflow capacity rather than fail
			// (after one more racing-insert re-check at the loop top).
			overflow = true
		}
	}
	q := byte(qAm)
	if m.policy == Policy2Q && !m.ghostOf(id).remove(id) {
		q = qA1 // unknown page: probation first; a ghost hit earns Am
	}
	if f == nil {
		f = new(frame)
	}
	*f = frame{id: id, data: data, dirty: dirty, queue: q}
	if n := int(id) + 1; n > len(m.frames) {
		m.frames = slices.Grow(m.frames, n-len(m.frames))[:n]
	}
	m.frames[id] = f
	m.lists[q].pushFront(f)
	m.size++
	if q == qA1 {
		m.sizeA1++
	}
}

// --- lookups ---

// Contains reports whether page id is buffered, without touching the LRU
// order or the statistics.
func (m *Manager) Contains(id disk.PageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(id) != nil
}

// Touch returns the buffered content of page id if present, promoting it to
// most recently used. It never touches the disk.
func (m *Manager) Touch(id disk.PageID) ([]byte, bool) {
	m.mu.Lock()
	f := m.lookup(id)
	if f == nil {
		m.mu.Unlock()
		return nil, false
	}
	m.touchLocked(f)
	data := f.data
	m.mu.Unlock()
	return data, true
}

// Peek returns the buffered content of page id without promoting it, without
// statistics and without disk access: a read that leaves the replacement
// state and the modelled costs untouched (assertions, invariant checks,
// observing a pinned frame).
func (m *Manager) Peek(id disk.PageID) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.lookup(id); f != nil {
		return f.data, true
	}
	return nil, false
}

// Get returns the content of page id, reading it from disk on a miss (one
// single-page read request).
func (m *Manager) Get(id disk.PageID) []byte { return m.GetTallied(id, nil, nil) }

// GetTallied is Get that also counts the hit or miss, and charges the I/O it
// causes, to t; a nil t counts in the global statistics alone. A miss reads
// into page, the caller's page-header scratch, which is left cleared; with
// no capacity in page a miss allocates one.
func (m *Manager) GetTallied(id disk.PageID, t *disk.Tally, page [][]byte) []byte {
	if data, ok := m.Touch(id); ok {
		m.hits.Add(1)
		if t != nil {
			t.Hits++
		}
		return data
	}
	m.misses.Add(1)
	if t != nil {
		t.Misses++
	}
	if cap(page) == 0 {
		page = make([][]byte, 1)
	}
	page = page[:1]
	m.d.ReadRun(id, page, false, t)
	data := page[0]
	page[0] = nil
	m.insert(id, data, false, t)
	return data
}

// Put stores page content in the buffer and marks it dirty; it is written
// back on eviction or Flush.
func (m *Manager) Put(id disk.PageID, data []byte) {
	m.insert(id, data, true, nil)
}

// --- pinning ---

// Pin marks page id as exempt from eviction and reports whether the page was
// resident; pins nest and must be balanced with Unpin. Pinning does not
// promote the frame: a pinned page keeps its LRU position and simply cannot
// be chosen as a victim.
func (m *Manager) Pin(id disk.PageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pinLocked(id)
}

func (m *Manager) pinLocked(id disk.PageID) bool {
	f := m.lookup(id)
	if f != nil {
		f.pins++
	}
	return f != nil
}

// Unpin releases one pin of page id. It panics on unbalanced use; a page
// that was never pinned (Pin returned false) must not be unpinned.
func (m *Manager) Unpin(id disk.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unpinLocked(id)
}

func (m *Manager) unpinLocked(id disk.PageID) {
	f := m.lookup(id)
	if f == nil || f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin(%d) without matching Pin", id))
	}
	f.pins--
}

// PinPages pins every page of ids that is resident and appends the pinned
// subset to pinned, returning the extended slice; the caller unpins exactly
// that subset with UnpinPages.
func (m *Manager) PinPages(pinned, ids []disk.PageID) []disk.PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if m.pinLocked(id) {
			pinned = append(pinned, id)
		}
	}
	return pinned
}

// UnpinPages releases one pin on every listed page.
func (m *Manager) UnpinPages(ids []disk.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		m.unpinLocked(id)
	}
}

// --- bulk operations ---

// Missing partitions pages into buffered (touched as hits) and missing ones;
// a page listed twice counts once, and the missing IDs are returned sorted,
// appended to missing[:0] (nil allocates as needed). The hits and misses are
// also counted in t, if any.
func (m *Manager) Missing(pages, missing []disk.PageID, t *disk.Tally) []disk.PageID {
	missing = missing[:0]
	var hi disk.PageID // highest page seen so far
	hits := 0
	m.mu.Lock()
	for i, id := range pages {
		// Callers pass a unit's handful of pages, mostly ascending: a scan
		// of the earlier ones finds a repeat without a set per call.
		if i > 0 && id <= hi && slices.Contains(pages[:i], id) {
			continue
		}
		hi = max(hi, id)
		if f := m.lookup(id); f != nil {
			m.touchLocked(f)
			hits++
		} else {
			missing = append(missing, id)
		}
	}
	m.mu.Unlock()
	m.hits.Add(int64(hits))
	m.misses.Add(int64(len(missing)))
	if t != nil {
		t.Hits += int64(hits)
		t.Misses += int64(len(missing))
	}
	slices.Sort(missing)
	return missing
}

// ExecutePlan executes a read schedule as one uninterrupted access to a
// storage unit: the first run is a fresh request (seek + latency), every
// further run is chained (latency only). If vector is true, only pages
// listed in requested enter the buffer (vector read); otherwise every
// transferred page does (normal read). A clean page already buffered gets its
// frame's slice replaced, never written into (the package comment states the
// contract), which is harmless because the disk is the source of truth for
// clean pages; a dirty one keeps its frame's newer data.
//
// If a page of the run that was buffered dirty when the run was read is
// evicted — written back — before the page's turn to be admitted (by an
// earlier page of this very run on a small buffer, or by a concurrent
// reader), what was read for it is older than the disk: the page is then
// looked at again, uncharged, instead of admitting the stale copy as a clean
// frame.
//
// The plan's reads, and the write-backs its admissions force, are also
// charged to t, if any. Each run is read into pages, the caller's page-header
// scratch, grown to the longest run when it is shorter; ExecutePlan returns it
// cleared, for the caller to keep.
func (m *Manager) ExecutePlan(runs []disk.Run, requested []disk.PageID, vector bool, t *disk.Tally, pages [][]byte) [][]byte {
	for i, r := range runs {
		if cap(pages) < r.N {
			pages = make([][]byte, r.N)
		}
		data := pages[:r.N]
		epoch := m.writeBacks.Load()
		m.d.ReadRun(r.Start, data, i > 0, t)
		for j := range data {
			id := r.Start + disk.PageID(j)
			if vector && !slices.Contains(requested, id) {
				continue
			}
			if m.writeBacks.Load() != epoch {
				m.d.PeekRun(id, data[j:j+1])
			}
			m.insert(id, data[j], false, t)
		}
		clear(data)
	}
	return pages
}

// pages returns the sorted IDs of the buffered pages, or of the dirty ones
// only.
func (m *Manager) pages(dirtyOnly bool) []disk.PageID {
	var ids []disk.PageID
	m.mu.Lock()
	for _, l := range m.lists {
		for f := l.head; f != nil; f = f.next {
			if f.dirty || !dirtyOnly {
				ids = append(ids, f.id)
			}
		}
	}
	m.mu.Unlock()
	slices.Sort(ids)
	return ids
}

// Flush writes back all dirty pages, coalescing physically consecutive dirty
// pages into single write requests, in ascending page order.
func (m *Manager) Flush() {
	for _, id := range m.pages(true) {
		m.writeBack(id, nil) // no-op for pages cleaned by an earlier run
	}
}

// Drop discards page id from the buffer without writing it back. The caller
// must know the page content is obsolete (e.g. a freed node page); dropping
// a pinned page is a programming error.
func (m *Manager) Drop(id disk.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.lookup(id)
	if f == nil {
		return
	}
	if f.pins > 0 {
		panic(fmt.Sprintf("buffer: Drop(%d) of a pinned page", id))
	}
	m.removeLocked(f)
}

// Clear flushes all dirty pages and empties the buffer. No page may be
// pinned.
func (m *Manager) Clear() {
	m.Flush()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.lists {
		for f := l.head; f != nil; f = f.next {
			if f.pins > 0 {
				panic(fmt.Sprintf("buffer: Clear with page %d still pinned", f.id))
			}
			m.frames[f.id] = nil
		}
	}
	m.lists = [2]flist{}
	m.ghosts = [1 << ghostBits]ghostList{}
	m.size, m.sizeA1 = 0, 0
}

// Retain flushes all dirty pages and then drops every buffered page for
// which keep returns false. Experiments use it to cool the data and object
// pages between queries while the (small, hot) directory of the access
// method stays cached.
func (m *Manager) Retain(keep func(disk.PageID) bool) {
	m.Flush()
	for _, id := range m.pages(false) {
		if !keep(id) {
			m.Drop(id)
		}
	}
}

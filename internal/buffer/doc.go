// Package buffer implements the LRU page buffer used between the access
// methods (internal/rtree, internal/store) and the modelled disk
// (internal/disk). It is a write-back buffer: dirty pages are written when
// they are evicted or flushed, and flushing coalesces physically consecutive
// dirty pages into single write requests — which is exactly how the
// contiguous cluster units of the cluster organization save write cost
// during construction. Because all page traffic funnels through the disk
// layer, the buffer works unchanged on every storage backend.
//
// The buffer also executes the read schedules planned by the query
// techniques (see disk.PlanSLM): an execution is one uninterrupted access to
// a storage unit, the first run paying a seek, every further run only a
// rotational delay. A vector read (paper section 6.2, Figure 15) transfers
// the same pages but admits only the requested ones into the buffer.
//
// # Page immutability
//
// The read path hands out sub-slices of pages instead of copies (R*-tree
// leaf payloads, object views), so this is a contract, not an accident:
// a slice returned by Get, Touch, Peek or admitted by ExecutePlan — and
// everything aliasing it — stays valid and unchanged for as long as it is
// referenced, eviction included. Holders must not write through such a
// slice either.
//
// A page is written once and never rewritten, from the writer to the disk.
// The writer copies, once: it marshals or clones a changed page into a fresh
// slice — an R*-tree node at its used length, which reads as zero-padded —
// and Puts it. Frames are replaced, never written into: Put and ExecutePlan
// swap the frame's slice. A write-back hands the frame's slice to the disk
// as it is, and the backend keeps it (disk.Backend.WriteRun): the memory
// backend stores it, the file backend writes it out, and both return fresh
// or never-rewritten slices. So do a cluster unit's completed pages, which
// go to the disk as sub-slices of the one buffer the unit was built in. The
// two pages that go on being written in place — a cluster unit's in-memory
// tail and a pagefile.SequentialFile's tail — are handed over as copies
// when they are flushed, and only grow past bytes already handed out;
// disk.Poke, for tests and snapshot restores, stores a copy too.
//
// # Concurrency
//
// One mutex, the buffer latch, guards the frame table and the two queue
// lists, and every step taken under it is O(1) or bounded by the pages of
// one call: a hit is a table load and a list move, Missing and PinPages take
// the latch once per call, and no disk I/O ever runs under it. Nor does a
// miss allocate on a full buffer: GetTallied and ExecutePlan read into page
// headers the caller owns and hands in — a query's scratch — and leave them
// cleared, the evicted frame takes the new page, and PinPages appends to the
// caller's slice. The frame
// table is a slice indexed by PageID, grown on demand — every backend
// numbers pages densely from zero (disk.Grow), so it costs 8 bytes per disk
// page and a lookup hashes nothing.
//
// Replacement is exact LRU (or exact 2Q): eviction walks the preferred
// queue from its tail and takes the first unpinned frame, which is the
// least recently used one because the list is kept in recency order —
// pinned frames are skipped and keep their place, so the walk is O(1)
// amortized. A dirty victim is written back outside the latch (write
// clustering probes its neighbours under writeMu) and the victim is then
// picked again, since anything may have changed while the latch was free.
//
// 2Q's ghost list is kept as 16 parts keyed by a Fibonacci hash of the
// PageID, each with its own bound of capacity/32 entries. That partition
// decides which evicted probationers are remembered and so which faults go
// straight to Am; one list with the summed bound would admit differently,
// and the committed admission rows of BENCH_server.json would change.
//
// Frames can be pinned: a pinned frame is exempt from eviction until every
// pin is released, which lets a reader assemble a multi-page object while
// other readers evict freely. When every frame is pinned the buffer grows
// past its capacity rather than failing; the overflow drains through normal
// eviction once pins are released.
//
// Concurrent readers (Get, Touch, Peek, Missing, ExecutePlan, Pin, Unpin)
// are safe against each other and against concurrent writers. The write path
// (Put, Flush, eviction write-back) is serialized internally; its write
// clustering remains exact for the single-threaded construction phase, which
// is the only phase that writes. Replacement depends only on the order of
// the calls, never on timing, so a single-threaded run reproduces the
// paper's modelled costs exactly.
package buffer

// Package filebackend implements disk.Backend on a real file: page id i
// lives at byte offset i·disk.PageSize of one os.File. It bridges the
// paper's modelled world to measurable reality — a store built on it performs
// real reads and writes, so the modelled cost of every workload can be put
// next to measured wall-clock I/O (clusterbench -exp backend does exactly
// that).
//
// The file is scratch: Open creates it, or takes an existing file only when
// it is empty, and refuses one that holds bytes without touching it. No code
// reads back a page file an earlier process wrote, so nothing here is made
// durable. A store's durable copies are its snapshot (spatialcluster.Save)
// and its write-ahead log (internal/wal).
//
// Semantics match the in-memory backend exactly from the caller's point of
// view: fresh pages read as zero, Free is a reclamation hint that leaves the
// page IDs valid, and modelled costs are identical because the disk layer
// charges them before the backend runs. The only observable difference is
// wall-clock time, reported through Measured.
//
// Concurrency follows the disk.Backend contract: the owning Disk serializes
// writes and lets reads run concurrently, and the backend uses the
// positionless ReadAt/WriteAt so concurrent readers never race on a shared
// file offset. The Measured counters are atomic.
package filebackend

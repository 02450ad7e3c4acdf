// Package store implements the three organization models for storing large
// sets of spatial objects that the paper compares (section 3.2):
//
//   - Secondary organization: the R*-tree indexes MBRs plus pointers; the
//     exact representations live in a sequential file. Every access to an
//     exact object is an independent random read.
//   - Primary organization: the exact representations are stored inside the
//     R*-tree data pages; objects larger than one page overflow to
//     exclusively owned pages.
//   - Cluster organization (section 4, the paper's contribution): each data
//     page of a modified R*-tree references one cluster unit — a contiguous
//     extent of at most Smax bytes holding the exact objects of that page —
//     so spatially adjacent objects can be fetched with a single read
//     request. Units are allocated at fixed size or through the (restricted)
//     buddy system.
//
// All three organizations share one Organization interface and one Env — a
// modelled disk (internal/disk) on a pluggable storage backend, a sharded
// write-back buffer (internal/buffer), and an extent allocator
// (internal/pagefile) — so their construction and query costs are directly
// comparable, exactly as in the paper's evaluation. Because the backend sits
// below the cost model, an organization behaves identically on the
// in-memory backend and on a real file (internal/disk/filebackend); only
// wall-clock time and durability differ, and Organization.Flush becomes an
// fsync barrier on a fsync-configured file backend.
//
// Queries refine without materialising: a candidate is a byte view — the
// buffer page's own sub-slice when the object lies inside one page,
// assembled into per-query scratch only when it straddles pages — whose
// vertices are decoded into that scratch and tested as a stack geometry
// (readers.go). The scratch comes from a pool once per query and hangs on
// nothing shared, because queries run concurrently under Env's read lock.
// PrepareFetch builds heap objects from the same views for the join.
//
// Beyond the paper's static comparison the package carries the engine
// features grown around it: Delete/Update with per-organization space
// reclamation, window/point queries with the cluster read techniques
// (Technique), k-nearest-neighbor distance browsing (NearestQuery), the
// parallel read path (RunQueriesParallel, the one driver that spawns read
// workers and takes Env's read lock; RunWindowQueriesParallel and
// RunNearestQueriesParallel call it, the server's dispatcher hands it mixed
// batches),
// the cluster organization's repair primitives used by internal/recluster
// (RepackUnit, Rebuild, Frag), Hilbert bulk loading, and whole-store
// persistence: Snapshot captures a built organization as a plain-data Image
// and Restore revives it on a fresh Env without a rebuild (persist.go); the
// root package wraps the pair into the single-file Save/Open API.
package store

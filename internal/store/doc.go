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
// modelled disk (internal/disk) on a pluggable storage backend, a write-back
// buffer behind one latch (internal/buffer), and an extent allocator
// (internal/pagefile) — so their construction and query costs are directly
// comparable, exactly as in the paper's evaluation. Because the backend sits
// below the cost model, an organization behaves identically on the
// in-memory backend and on a real file (internal/disk/filebackend); only
// wall-clock time differs. Neither backend is durable: a store's durable
// copies are its snapshot and its write-ahead log.
//
// The organizations share the R*-tree filter step and differ only in where
// the exact representations live and how they are transferred, and the code
// is split the same way (base.go). An unexported base struct, embedded by
// Secondary, Primary and Cluster, holds the Env, the tree, the spatial keys
// and the object tallies, and implements every Organization method but Name
// and PrepareFetch: the locking mutators, Stats and Flush, one filter/refine
// engine for window and point queries over rtree.SearchLeaves, and the k-NN
// browse (nearest.go). It calls back into the organization's layout — store
// or reclaim one object, decode a leaf entry, read the qualifying objects of
// one data page with a technique, the object-storage half of Stats and
// Flush, and the transfer demand of ObjectPageDemand. DecodeEntryID and
// ObjectPageDemand reach the layout through Unwrap, so wrapped stores (the
// write-ahead log's) join like plain ones.
//
// Env.mu orders mutations against concurrent queries. Every Organization
// method that takes it is base's, in base.go:
//
//	Insert, Delete, Update, Flush   write lock
//	WindowQuery, PointQuery,        read lock, taken by the query itself
//	NearestQuery                    (base.begin) and released by defer
//	Stats                           read lock
//	PrepareFetch                    none: the join reads stores no one mutates
//	Name, Tree, Env                 none (immutable after construction,
//	                                except Tree across Cluster.Rebuild)
//
// Beyond the interface, the cluster organization's WindowQueryOptimum takes
// the read lock like a query, RepackUnit, Rebuild and BulkLoadHilbert the
// write lock, Frag and UnitFrags the read lock, and Env.Close the write lock.
// So any number of queries and Stats calls may overlap each other, from any
// number of goroutines; a mutation overlaps nothing that locks.
//
// A query carries its own cost. Its scratch holds a disk.Tally that the tree,
// the layout, the buffer and the disk fill as the query's requests go by —
// every read, every write-back its misses force, every buffer hit and miss,
// the backend's wall clock and the query's wait for Env.mu — and the result
// embeds it. No request is charged to two queries, so QueryResult.Cost is the
// query's own even when others run beside it, and the tallies of concurrent
// queries sum to the global Disk.Cost and Buf.Stats deltas.
//
// Queries refine without materialising: a candidate is a byte view — the
// buffer page's own sub-slice when the object lies inside one page,
// assembled into per-query scratch only when it straddles pages — whose
// vertices are decoded into that scratch and tested as a stack geometry
// (readers.go). The scratch comes from a pool once per query and hangs on
// nothing shared, because queries run concurrently under Env's read lock. It
// also owns the memory a buffer miss needs — the read plan, the page headers
// a disk read fills, the pinned pages — and the k-NN accumulator, so a
// cluster query allocates only its answer, however many pages it misses.
// PrepareFetch builds heap objects from the same views for the join.
//
// Nor does the read path compute what no answer uses. Four rules, each of
// which leaves every page read, every buffer touch, every answer, Candidates,
// CandidateBytes and Cost as they were:
//
//   - A data page's region, which TechThreshold compares with the window, is
//     the rectangle of the page's parent entry (rtree.LeafMatch.Rect), equal
//     to the page's MBR; only a root that is itself a leaf unions its entries.
//   - A window candidate whose key lies inside the window is an answer by its
//     key (keyDecides). The cluster layout touches its unit pages as a read
//     would but hands it out as a nil view: it neither slices nor assembles
//     it. Secondary and primary read every object, since for them the read
//     is the modelled I/O.
//   - Once a k-NN query holds k answers, a fetched candidate whose key is
//     farther than the k-th best distance is counted but neither decoded nor
//     measured: its exact distance is at least its key's.
//   - A k-NN browse decodes every data page into one pooled node
//     (rtree.NearestLeaves), not a fresh node and entry list per page.
//
// A k-NN query also reads less than every candidate of a surfacing data page,
// which does change what it reads but never what it answers. Before the
// read, the page's entries are bounded by their keys: one whose MinDist
// exceeds the k-th best exact distance so far, or U — the k-th smallest of
// those distances and the page's keys' MaxDist, an upper bound of the answer's
// k-th distance because a key contains its object — is dropped. The rest are
// read nearest key first, on the cluster organization with one vector-read
// access to the unit (nearest.go).
//
// A query that panics — over a damaged page, say — releases its read lock on
// Env and its capture's pins on the way out, so a caller that recovers keeps
// a store its mutations can still lock.
//
// Beyond the paper's static comparison the package carries the engine
// features grown around it: Delete/Update with per-organization space
// reclamation, window/point queries with the cluster read techniques
// (Technique), k-nearest-neighbor distance browsing (NearestQuery),
// concurrent queries that lock and tally themselves (a server runs each on its
// request's goroutine), the cluster organization's repair primitives used by internal/recluster
// (RepackUnit, Rebuild, Frag), Hilbert bulk loading, and whole-store
// persistence: Snapshot captures a built organization as a plain-data Image
// and Restore revives it on a fresh Env without a rebuild (persist.go); the
// root package wraps the pair into the single-file Save/Open API.
package store

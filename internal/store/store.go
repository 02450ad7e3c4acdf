package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/pagefile"
	"spatialcluster/internal/rtree"
)

// Technique selects how the exact objects of a qualifying cluster unit are
// read (paper sections 5.4 and 6.2). Organizations without cluster units
// ignore it.
type Technique int

// The read techniques of the evaluation.
const (
	// TechComplete transfers the whole cluster unit as soon as one of its
	// objects qualifies — the simplest technique (section 5.4).
	TechComplete Technique = iota
	// TechThreshold reads page-by-page when the overlap degree between the
	// unit region and the query window is below the geometric threshold
	// T(c), and the complete unit otherwise (section 5.4.1, [BKS93a]).
	TechThreshold
	// TechSLM reads the requested pages with the read schedule of
	// [SLM93]: gaps shorter than l = tl/tt − ½ are read through
	// (section 5.4.2). All transferred pages enter the buffer.
	TechSLM
	// TechSLMVector is TechSLM with a vector read: only requested pages
	// enter the buffer (section 6.2, Figure 15).
	TechSLMVector
	// TechPageByPage reads each requested object individually (one
	// rotational delay per object within a single seek per unit); it is
	// the fallback arm of TechThreshold and the behaviour of point
	// queries.
	TechPageByPage
)

// TechDefault is the technique of a served window query that names none:
// the server that finally executes it reads with TechSLMVector. It exists on
// the wire only — both codecs can express it, and the router passes it on to
// the shards as it came — and never reaches an Organization.
const TechDefault Technique = -1

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case TechComplete:
		return "complete"
	case TechThreshold:
		return "threshold"
	case TechSLM:
		return "SLM"
	case TechSLMVector:
		return "vector read"
	case TechPageByPage:
		return "page-by-page"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// TechByName parses a read technique name as used by the CLIs and the
// network API: "complete", "threshold", "SLM"/"slm", "vector", "page".
// The empty string selects TechComplete, the CLIs' default; a served window
// that names none reads with TechSLMVector instead (TechDefault).
func TechByName(name string) (Technique, error) {
	switch strings.ToLower(name) {
	case "", "complete":
		return TechComplete, nil
	case "threshold":
		return TechThreshold, nil
	case "slm":
		return TechSLM, nil
	case "vector":
		return TechSLMVector, nil
	case "page":
		return TechPageByPage, nil
	}
	return 0, fmt.Errorf("store: unknown read technique %q (want complete, threshold, SLM, vector or page)", name)
}

// QueryResult reports a point or window query: the refined answers, the
// filter-step candidates, and what the query consumed — the modelled I/O cost
// of its requests, its buffer hits and misses, its backend and lock-wait time.
// The query tallies these itself, so they are its own even when other queries
// run beside it.
type QueryResult struct {
	IDs            []object.ID // objects whose exact geometry qualifies
	Candidates     int         // MBR matches (filter step output)
	CandidateBytes int64       // summed serialized size of the candidates
	disk.Tally                 // the query's own consumption; Cost is its I/O cost
}

// NearestResult reports a k-nearest-neighbor query: the (up to) k nearest
// objects by exact geometric distance in ascending order — ties broken by
// ascending object ID, so the answer list is a deterministic function of the
// stored set — plus the filter-step and I/O tallies of QueryResult.
type NearestResult struct {
	QueryResult
	// Dists[i] is the exact distance of IDs[i] to the query point.
	Dists []float64
}

// StorageStats describes the space occupied by an organization (Figure 6
// counts occupied pages; cluster units are charged at their full allocated
// size because their free space cannot serve other purposes). The
// fragmentation fields track how deletions and updates degrade that space:
// dead bytes are tombstoned object bytes that still occupy pages (cluster
// units and the secondary organization's append-only file accumulate them;
// the primary organization frees overflow pages immediately and has none).
type StorageStats struct {
	DirPages      int // R*-tree directory pages
	LeafPages     int // R*-tree data pages
	ObjectPages   int // pages holding exact objects (file or cluster units)
	OccupiedPages int // total charged pages
	Objects       int
	ObjectBytes   int64

	LiveBytes  int64   // bytes of live (queryable) objects
	DeadBytes  int64   // tombstoned bytes still occupying pages
	Units      int     // cluster units (zero for other organizations)
	ExtentUtil float64 // LiveBytes / (OccupiedPages · PageSize)
}

// ObjectFetch is a prepared object transfer: the modelled I/O has already
// been charged and the needed page bytes captured, so invoking it is pure CPU
// work (byte assembly and deserialization) that can run on any goroutine
// without touching the buffer or the disk. The parallel join's dispatcher
// prepares fetches in plane order — keeping the modelled cost deterministic,
// exactly as the paper's serialized request model demands — while a worker
// pool materializes and refines them on all cores.
type ObjectFetch func() []*object.Object

// The refusals of Organization.Insert: conditions of the object handed in,
// not of the store, so a caller — the server answers 409 and 413 — can
// report them and carry on.
var (
	ErrDuplicateID    = errors.New("store: duplicate object ID")
	ErrObjectTooLarge = errors.New("store: object exceeds the maximum cluster unit size")
)

// Organization is the common interface of the three storage models.
type Organization interface {
	// Name returns the paper's name of the model ("sec. org." etc.).
	Name() string
	// Insert stores the object with the given spatial key (the key is the
	// object MBR, possibly enlarged for join version b). The caller
	// guarantees key ⊇ o.Bounds() — WindowQuery answers a candidate whose key
	// lies inside the window without looking at its geometry; the serving
	// layer checks the keys that arrive over a socket. An object the store
	// cannot take — ErrDuplicateID, ErrObjectTooLarge — is refused with the
	// store unchanged.
	Insert(o *object.Object, key geom.Rect) error
	// Delete removes the object and reclaims or tombstones its storage:
	// the primary organization frees overflow pages, the secondary
	// organization leaves dead bytes in its append-only file, and the
	// cluster organization tombstones the object inside its cluster unit,
	// returning the unit's extent to the allocator once the unit is empty.
	// It reports whether the object existed.
	Delete(id object.ID) bool
	// Update replaces the stored object of the same ID with o under the new
	// spatial key, key ⊇ o.Bounds() as for Insert (delete + reinsert — the
	// paper's R*-tree has no in-place geometry update). It reports whether
	// the object existed.
	Update(o *object.Object, key geom.Rect) bool
	// PointQuery returns the objects containing p (section 5.5).
	PointQuery(p geom.Point) QueryResult
	// NearestQuery returns the k objects nearest to p by exact geometric
	// distance (distance browsing, [HS95]): the R*-tree is traversed
	// best-first by MBR MinDist and candidates are refined against the
	// exact representation. Like the point query, this is a maximally
	// selective access, so the cluster organization reads the qualifying
	// objects page-by-page rather than dragging whole units (section 5.5).
	NearestQuery(p geom.Point, k int) NearestResult
	// WindowQuery returns the objects intersecting w (section 5.4).
	WindowQuery(w geom.Rect, tech Technique) QueryResult
	// PrepareFetch is the object-transfer primitive of the spatial join: it
	// charges the I/O of reading the exact representations of the given
	// objects, all referenced from data page leaf, through buffer m using
	// the given technique, captures the page bytes, and returns the
	// deferred assembly step.
	PrepareFetch(leaf disk.PageID, ids []object.ID, m *buffer.Manager, tech Technique) ObjectFetch
	// Tree exposes the underlying R*-tree (the spatial join traverses it).
	Tree() *rtree.Tree
	// Env exposes the shared storage environment.
	Env() *Env
	// Stats reports occupied pages.
	Stats() StorageStats
	// Flush writes all buffered dirty state to disk (end of construction).
	Flush()
}

// Env bundles the shared storage substrate of one organization instance.
type Env struct {
	Disk  *disk.Disk
	Buf   *buffer.Manager
	Alloc *pagefile.Allocator

	// mu orders mutations against queries. The mutating Organization
	// methods (Insert, Delete, Update, Flush) and the reclusterer's
	// repack/rebuild take the write lock; the query methods take the read
	// lock around each query (base.begin), Stats and Frag around their
	// bookkeeping reads.
	mu sync.RWMutex
}

// NewEnv creates a fresh in-memory disk with the paper's timing parameters,
// an LRU buffer of bufPages pages, and an extent allocator.
func NewEnv(bufPages int) *Env {
	return NewEnvWithParams(bufPages, disk.DefaultParams())
}

// NewEnvWithParams is NewEnv with explicit disk parameters.
func NewEnvWithParams(bufPages int, p disk.Params) *Env {
	return NewEnvOn(bufPages, buffer.PolicyLRU, p, nil)
}

// NewEnvOn is the general constructor: an environment whose pages live in the
// given backend (nil selects the in-memory backend) behind a buffer with the
// given replacement policy. The modelled costs are identical for every
// backend — only measured wall-clock I/O differs — and the policy changes
// which pages stay resident, hit ratios and wall-clock, never answers: every
// query reads the same pages either way.
func NewEnvOn(bufPages int, pol buffer.Policy, p disk.Params, b disk.Backend) *Env {
	d := disk.NewWithBackend(p, b)
	return &Env{
		Disk:  d,
		Buf:   buffer.NewWithPolicy(d, bufPages, pol),
		Alloc: pagefile.NewAllocator(d),
	}
}

// Params returns the disk timing parameters.
func (e *Env) Params() disk.Params { return e.Disk.Params() }

// Close releases the environment's backend (closing the backing file of a
// file-backed store). The organization must not be used afterwards.
func (e *Env) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Disk.Close()
}

// leafPayloadSize is the fixed leaf payload: object ID (8) + size (4) +
// spare (2) = 14 bytes, completing the paper's 46-byte entry.
const leafPayloadSize = 14

// encodePayload packs an object reference into a fixed leaf payload.
func encodePayload(id object.ID, size int) []byte {
	p := make([]byte, leafPayloadSize)
	binary.LittleEndian.PutUint64(p, uint64(id))
	binary.LittleEndian.PutUint32(p[8:], uint32(size))
	return p
}

// decodePayload unpacks an object reference from a fixed leaf payload.
func decodePayload(p []byte) (object.ID, int) {
	return object.ID(binary.LittleEndian.Uint64(p)),
		int(binary.LittleEndian.Uint32(p[8:]))
}

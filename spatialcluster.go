// Package spatialcluster is a from-scratch reproduction of
//
//	Thomas Brinkhoff, Hans-Peter Kriegel:
//	"The Impact of Global Clustering on Spatial Database Systems",
//	Proc. 20th VLDB, Santiago de Chile, 1994.
//
// It provides the paper's cluster organization — an R*-tree whose every data
// page references one contiguous cluster unit holding the exact spatial
// objects of that page — next to the two baseline organization models
// (secondary and primary), a simulated magnetic disk with the paper's
// seek/latency/transfer cost model, the cluster-read techniques (complete,
// geometric threshold, SLM schedule, vector read), the R*-tree spatial
// join with plane-order processing and pinning, a k-nearest-neighbor
// distance-browsing engine (NearestQuery: best-first over MBR MinDist with
// exact-distance refinement), a dynamic update engine — Delete/Update on
// every organization plus online reclustering (Recluster) that repairs the
// clustering decay updates leave behind — and pluggable storage backends
// with persistence: a store can run on the in-memory simulated disk (the
// default) or on a scratch page file that measures real I/O
// (StoreConfig.Path), and a built store can be saved to a single snapshot
// file and reopened without a rebuild (Save, Open).
//
// # Quick start
//
//	s := spatialcluster.NewClusterStore(spatialcluster.StoreConfig{
//		BufferPages: 256,
//		SmaxBytes:   80 * 1024,
//	})
//	obj := spatialcluster.NewObject(1, spatialcluster.NewPolyline([]spatialcluster.Point{
//		{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.15},
//	}), 500)
//	s.Insert(obj, obj.Bounds())
//	res := s.WindowQuery(spatialcluster.R(0, 0, 0.5, 0.5), spatialcluster.TechComplete)
//
// All I/O costs are modelled, not measured: query and join results carry a
// Cost whose TimeMS(DefaultDiskParams()) is the paper's metric.
//
// A store's query methods may be called from any number of goroutines at
// once, beside its mutations: each query takes the store's read lock itself,
// and tallies its own Cost, buffer hits and misses, so those stay the query's
// own under concurrency.
//
// The experiment drivers that regenerate every table and figure of the
// paper's evaluation live in internal/exp and are exposed through the
// clusterbench command; see docs/BENCHMARKS.md for the emitted artifacts.
package spatialcluster

import (
	"fmt"
	"os"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/disk/filebackend"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/join"
	"spatialcluster/internal/object"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// Geometry types of the exact object representations.
type (
	// Point is a location in the data space.
	Point = geom.Point
	// Rect is an axis-parallel rectangle (MBR).
	Rect = geom.Rect
	// Segment is a line segment.
	Segment = geom.Segment
	// Polyline is an open vertex chain (streets, rivers, tracks).
	Polyline = geom.Polyline
	// Polygon is a simple closed ring (administrative boundaries).
	Polygon = geom.Polygon
	// Geometry is the exact-representation interface.
	Geometry = geom.Geometry
	// Decomposed is the decomposed representation for fast exact tests.
	Decomposed = geom.Decomposed
)

// Object model.
type (
	// Object is a spatial object: ID, exact geometry and padding that
	// controls the serialized size.
	Object = object.Object
	// ObjectID identifies an object.
	ObjectID = object.ID
)

// Storage and cost model.
type (
	// Organization is the common interface of the three storage models.
	Organization = store.Organization
	// QueryResult reports a point or window query.
	QueryResult = store.QueryResult
	// NearestResult reports a k-nearest-neighbor query: the k nearest
	// objects in ascending exact-distance order (ties by ascending ID)
	// plus their distances.
	NearestResult = store.NearestResult
	// StorageStats reports occupied pages.
	StorageStats = store.StorageStats
	// Technique selects how cluster units are read.
	Technique = store.Technique
	// Cost tallies seeks, rotational delays and page transfers.
	Cost = disk.Cost
	// DiskParams holds seek/latency/transfer times.
	DiskParams = disk.Params
	// Measured tallies the real wall-clock I/O a storage backend performed
	// (always zero in memory); compare it with the modelled Cost.
	Measured = disk.Measured
)

// Join API.
type (
	// JoinConfig tunes a spatial join run; JoinConfig.Workers sizes the
	// parallel refinement pool (modelled costs are identical for every
	// worker count).
	JoinConfig = join.Config
	// JoinResult reports the join's cardinalities and per-phase costs.
	JoinResult = join.Result
)

// Dataset generation (the synthetic TIGER-like maps of the evaluation).
type (
	// MapSpec describes a dataset to generate.
	MapSpec = datagen.Spec
	// Dataset is a generated map.
	Dataset = datagen.Dataset
)

// Read techniques (paper sections 5.4 and 6.2).
const (
	TechComplete   = store.TechComplete
	TechThreshold  = store.TechThreshold
	TechSLM        = store.TechSLM
	TechSLMVector  = store.TechSLMVector
	TechPageByPage = store.TechPageByPage
)

// Map and series identifiers of the paper's Table 1.
const (
	Map1    = datagen.Map1
	Map2    = datagen.Map2
	SeriesA = datagen.SeriesA
	SeriesB = datagen.SeriesB
	SeriesC = datagen.SeriesC
)

// PageSize is the disk page size (4 KB).
const PageSize = disk.PageSize

// ExactTestMS is the CPU cost charged per exact geometry test during join
// refinement (paper section 6.3).
const ExactTestMS = join.ExactTestMS

// DefaultDiskParams returns the paper's disk timing parameters
// (ts = 9 ms, tl = 6 ms, tt = 1 ms per 4 KB page).
func DefaultDiskParams() DiskParams { return disk.DefaultParams() }

// StoreConfig configures a storage organization instance.
type StoreConfig struct {
	// BufferPages is the size of the write-back page buffer (default 256).
	// The buffer is safe for concurrent readers; construction
	// (Insert) remains single-threaded.
	BufferPages int
	// SmaxBytes is the maximum cluster unit size for cluster stores
	// (default 80 KB, series A of Table 1).
	SmaxBytes int
	// BuddySizes enables the buddy system for cluster unit allocation:
	// 0 or 1 = fixed Smax units, 3 = the paper's restricted buddy system.
	BuddySizes int
	// Path, when set, puts the pages in a scratch file instead of memory
	// (the paper's simulated disk, the default): every page transfer is then
	// a real read or write, measurable with MeasuredIO, while modelled costs,
	// storage statistics and query answers stay the same. The file is
	// created if missing, taken if empty, and refused if it holds bytes (a
	// used path is never reopened, so a second build on one is an error).
	// NewStore and Open return the error; the New*Store constructors panic
	// on it. Like memory it keeps nothing past the process; Save writes the
	// store's durable copy.
	Path string
	// BufferPolicy selects the buffer replacement policy: "" or "lru" for
	// plain LRU, "2q" for the scan-resistant ghost-list admission policy
	// (one-touch pages stay probationary and cannot wash out the hot set).
	// The policy changes hit ratios, and with them the modelled I/O of the
	// misses, never answers.
	BufferPolicy string
	// WALPath attaches a write-ahead log at the given directory: every
	// mutation is logged and fsynced before it applies, so an acknowledged
	// mutation survives a crash (recover with RecoverStore). Empty disables
	// logging. The WAL checkpoints and replays against the in-memory
	// backend, so it is incompatible with Path.
	WALPath string
}

// configError is a misconfiguration — a contradiction inside a StoreConfig or
// an unknown name — as opposed to a failure of the environment. It matches
// os.ErrInvalid so that a CLI can tell flag misuse from a runtime error.
type configError string

func (e configError) Error() string        { return "spatialcluster: " + string(e) }
func (e configError) Is(target error) bool { return target == os.ErrInvalid }

func configErrorf(format string, args ...any) error {
	return configError(fmt.Sprintf(format, args...))
}

// check validates the config — every rule, touching nothing on disk — and
// parses its buffer policy. NewStore, Open and RecoverStore start with it, so
// a misconfiguration is reported before any file is read or created.
func (c StoreConfig) check() (buffer.Policy, error) {
	pol, err := buffer.ParsePolicy(c.BufferPolicy)
	if err != nil {
		return pol, configError(err.Error())
	}
	if c.Path != "" && c.WALPath != "" {
		return pol, configError("WALPath is incompatible with a page file Path " +
			"(the WAL checkpoints and replays against the in-memory backend)")
	}
	return pol, nil
}

// env builds the storage environment the (checked) config describes, for a
// disk with the given timing parameters: the one place a backend is opened.
func (c StoreConfig) env(p disk.Params) (*store.Env, error) {
	pol, err := c.check()
	if err != nil {
		return nil, err
	}
	var b disk.Backend
	if c.Path != "" {
		b, err = filebackend.Open(c.Path)
		if err != nil {
			return nil, err
		}
	}
	buf := c.BufferPages
	if buf <= 0 {
		buf = 256
	}
	return store.NewEnvOn(buf, pol, p, b), nil
}

// NewStore is the one way a fresh store is built: an organization of the
// named kind — "secondary", "primary" or "cluster" — on the storage cfg
// describes, holding objs under their spatial keys (both nil for an empty
// store), charged on the paper's disk (DefaultDiskParams). The objects are
// inserted in the given order and flushed before the write-ahead log of
// cfg.WALPath attaches, so a bulk load is the log's initial checkpoint, not
// one fsynced record per object. A misconfiguration — unknown kind or buffer
// policy, WALPath with a page file Path — is an error matching
// os.ErrInvalid, reported before anything is created. Any other error is an
// object the organization refused (see Organization.Insert) or the
// environment's: the backing file could not be created or already holds
// bytes, or the log directory could not be set up.
func NewStore(kind string, cfg StoreConfig, objs []*Object, keys []Rect) (Organization, error) {
	if kind != "secondary" && kind != "primary" && kind != "cluster" {
		return nil, configErrorf("unknown organization %q (want secondary, primary or cluster)", kind)
	}
	env, err := cfg.env(disk.DefaultParams())
	if err != nil {
		return nil, err
	}
	var org Organization
	switch kind {
	case "secondary":
		org = store.NewSecondary(env)
	case "primary":
		org = store.NewPrimary(env)
	default:
		smax := cfg.SmaxBytes
		if smax <= 0 {
			smax = 80 * 1024
		}
		org = store.NewCluster(env, store.ClusterConfig{SmaxBytes: smax, BuddySizes: cfg.BuddySizes})
	}
	for i, o := range objs {
		if err := org.Insert(o, keys[i]); err != nil {
			env.Close()
			return nil, fmt.Errorf("spatialcluster: NewStore: %w", err)
		}
	}
	if len(objs) > 0 {
		org.Flush()
	}
	return cfg.attachWAL(org)
}

// mustStore is NewStore for the New*Store constructors, which predate
// fallible backends and keep their panic-on-misconfiguration contract.
func mustStore(kind string, cfg StoreConfig) Organization {
	org, err := NewStore(kind, cfg, nil, nil)
	if err != nil {
		panic(err)
	}
	return org
}

// CloseStore releases the store's backend — for a file-backed store this
// closes the backing file, for a WAL-attached store it also syncs and closes
// the log. The organization must not be used afterwards.
func CloseStore(org Organization) error {
	if ws, ok := org.(*wal.Store); ok {
		return ws.Close()
	}
	return org.Env().Close()
}

// MeasuredIO reports the real wall-clock I/O the store's backend has
// performed so far (always zero in memory). Putting it next to the
// modelled Cost of the same workload is the point of the file backend; see
// the backend benchmark in internal/exp.
func MeasuredIO(org Organization) Measured { return org.Env().Disk.Measured() }

// NewSecondaryStore creates an empty secondary organization (R*-tree over
// MBRs, exact objects in a sequential file). Like NewPrimaryStore and
// NewClusterStore it is NewStore without the error: it panics instead.
func NewSecondaryStore(cfg StoreConfig) Organization { return mustStore("secondary", cfg) }

// NewPrimaryStore creates an empty primary organization (exact objects
// inside the R*-tree data pages).
func NewPrimaryStore(cfg StoreConfig) Organization { return mustStore("primary", cfg) }

// NewClusterStore creates an empty cluster organization (the paper's
// contribution: data pages with attached contiguous cluster units).
func NewClusterStore(cfg StoreConfig) Organization { return mustStore("cluster", cfg) }

// NewObject creates a spatial object with the given geometry and padding
// bytes (padding controls the serialized size without adding vertices).
func NewObject(id ObjectID, g Geometry, pad int) *Object {
	return object.New(id, g, pad)
}

// NewPolyline constructs a polyline from at least two vertices.
func NewPolyline(vertices []Point) *Polyline { return geom.NewPolyline(vertices) }

// NewPolygon constructs a polygon from at least three vertices.
func NewPolygon(vertices []Point) *Polygon { return geom.NewPolygon(vertices) }

// R constructs a rectangle from two corner coordinates in any order.
func R(x1, y1, x2, y2 float64) Rect { return geom.R(x1, y1, x2, y2) }

// Pt constructs a point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Decompose builds the decomposed representation of a geometry.
func Decompose(g Geometry) *Decomposed { return geom.Decompose(g) }

// GenerateMap generates a synthetic TIGER-like dataset (Table 1 of the
// paper: maps 1 and 2, series A/B/C, scalable).
func GenerateMap(spec MapSpec) *Dataset { return datagen.Generate(spec) }

// RunJoin executes the spatial intersection join R ⋈ S over two
// organizations built from the same kind of store. Both stores must be
// flushed first. Set JoinConfig.Workers > 1 to refine on a worker pool; the
// modelled I/O cost and the result cardinalities are identical for every
// worker count.
func RunJoin(orgR, orgS Organization, cfg JoinConfig) JoinResult {
	return join.Run(orgR, orgS, cfg)
}

// BulkLoadHilbert loads objects into an empty cluster store with static
// global clustering (Hilbert packing): objects are sorted along the Hilbert
// curve, grouped into cluster units at the given fill (0 selects 0.9), and
// written with sequential I/O — several times cheaper to construct than
// dynamic insertion, with equivalent query behaviour. It panics if org is
// not an empty cluster store.
func BulkLoadHilbert(org Organization, objs []*Object, keys []Rect, fill float64) {
	c, ok := org.(*store.Cluster)
	if !ok {
		panic("spatialcluster: BulkLoadHilbert requires a cluster store")
	}
	c.BulkLoadHilbert(objs, keys, fill)
}

// HilbertIndex maps a point of the unit square to its Hilbert-curve index
// (the spatial sort key of static global clustering).
func HilbertIndex(p Point) uint64 { return geom.HilbertIndex(p) }

// Recluster runs one maintenance pass of the named online reclustering
// policy — "threshold" (repack every degraded unit once the organization's
// dead-byte fraction crosses a bound), "incremental" (repack the worst unit)
// or "rebuild" (full Hilbert reload) — against a cluster organization that
// has accumulated fragmentation from Delete/Update. It reports how many
// units were rewritten and whether a full rebuild ran. Non-cluster
// organizations are a no-op (they have no cluster units to maintain). On a
// WAL-attached store the log records the pass, so replay repeats it at the
// same point of the mutation history.
func Recluster(org Organization, policy string) (repackedUnits int, rebuilt bool, err error) {
	if ws, ok := org.(*wal.Store); ok {
		res, err := ws.Recluster(policy)
		if err != nil {
			return 0, false, err
		}
		return res.RepackedUnits, res.Rebuilt, nil
	}
	p, err := recluster.ByName(policy)
	if err != nil {
		return 0, false, err
	}
	c, ok := store.Unwrap(org).(*store.Cluster)
	if !ok {
		return 0, false, nil
	}
	res := p.Maintain(c)
	return res.RepackedUnits, res.Rebuilt, nil
}

package exp

import (
	"fmt"
	"math"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/store"
)

// Options configures an experiment run.
type Options struct {
	// Scale divides the paper's object counts (default 8; 1 = full size).
	Scale int
	// Queries is the number of queries per window size (default: the
	// paper's 678).
	Queries int
	// Seed drives all data and workload generation.
	Seed int64
	// Progress, if non-nil, receives one line per completed step.
	Progress func(format string, args ...any)
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 8
	}
	if o.Queries <= 0 {
		o.Queries = datagen.NumQueries
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// storeConfig is the store every organization under test is built on unless
// an experiment says otherwise: in memory, LRU, with the construction
// buffer — 400 pages (≈1.6 MB, a plausible 1994 configuration) divided by
// the scale, floored at 50 pages. The tree grows linearly with the data, so
// the buffer-to-tree ratio must be preserved or construction becomes
// artificially free at small scales.
func (o Options) storeConfig() spatialcluster.StoreConfig {
	return spatialcluster.StoreConfig{BufferPages: max(400/max(o.Scale, 1), 50)}
}

// smoke caps a defaulted run at CI size — a scale no finer than 64 and, for
// the experiments that read Queries, at most the given number of them — the
// part of every experiment's -smoke preset that is not its own.
func (o Options) smoke(queries int) Options {
	o.Scale = max(o.Scale, 64)
	if queries > 0 {
		o.Queries = min(o.Queries, queries)
	}
	return o
}

// joinBufferSizes are the paper's buffer sizes of Figures 14 and 16, in
// pages at full scale.
var joinBufferSizes = []int{200, 400, 800, 1600, 3200, 6400}

// scaledBuffer divides a full-scale buffer size by the square root of the
// experiment scale. The join's working set — the cluster units and object
// pages of the current position of the plane sweep — grows with the square
// root of the object count, while cluster units keep their full-scale size,
// so dividing by √scale preserves the buffer-to-working-set ratios of
// Figures 14 and 16.
func (o Options) scaledBuffer(pages int) int {
	b := int(float64(pages) / math.Sqrt(float64(o.Scale)))
	if b < 32 {
		b = 32
	}
	return b
}

// mbrScaleVersionA and mbrScaleVersionB control the MBR extensions of the
// two join test series (section 6.1): version a uses the object MBRs as
// generated (≈0.7 intersections per MBR on the synthetic maps); version b
// enlarges them so that each MBR intersects roughly 9 MBRs of the other map,
// matching the paper's 86,094 vs 1.2 million pairs.
const (
	mbrScaleVersionA = 1.0
	mbrScaleVersionB = 4.0
)

// orgKind names an organization model under test, as the reports label it.
type orgKind string

// The organization models compared throughout the evaluation.
const (
	orgSecondary orgKind = "sec. org."
	orgPrimary   orgKind = "prim. org."
	orgCluster   orgKind = "cluster org."
)

// allOrgs is the comparison set of Figures 5, 6, 8, 12 and 14.
var allOrgs = []orgKind{orgSecondary, orgPrimary, orgCluster}

// storeKinds names each organization the way the facade's builder does.
var storeKinds = map[orgKind]string{orgSecondary: "secondary", orgPrimary: "primary", orgCluster: "cluster"}

// buildResult reports the construction of one organization.
type buildResult struct {
	Org             store.Organization
	ConstructionSec float64            // modelled I/O time (Figure 5)
	Stats           store.StorageStats // occupied pages (Figure 6)
	WallClock       time.Duration
}

// build constructs an organization of the given kind over ds on the store
// cfg describes, through the facade's one builder, inserting the objects
// unsorted (generation order). An unset Smax is the dataset's (Table 1).
// The buffer is then emptied so the first query starts cold, and the
// disk's cost so far is the construction cost: a function of the workload,
// the buffer and its policy alone — identical for every backend.
func build(kind orgKind, ds *datagen.Dataset, cfg spatialcluster.StoreConfig) buildResult {
	if cfg.SmaxBytes == 0 {
		cfg.SmaxBytes = ds.Spec.SmaxBytes()
	}
	start := time.Now()
	org, err := spatialcluster.NewStore(storeKinds[kind], cfg, ds.Objects, ds.MBRs)
	if err != nil {
		panic(fmt.Sprintf("exp: building %s: %v", kind, err))
	}
	env := org.Env()
	env.Buf.Clear()
	cost := env.Disk.Cost()
	env.Disk.ResetCost()
	return buildResult{
		Org:             org,
		ConstructionSec: cost.TimeSec(env.Params()),
		Stats:           org.Stats(),
		WallClock:       time.Since(start),
	}
}

// querySummary aggregates a batch of queries.
type querySummary struct {
	Queries        int
	Answers        int
	Candidates     int
	CandidateBytes int64
	TotalMS        float64
}

// MSPer4KB normalizes the I/O time to the amount of data queried, the
// paper's msec/4KB metric (Figures 8, 10 and 12).
func (q querySummary) MSPer4KB() float64 {
	if q.CandidateBytes == 0 {
		return 0
	}
	return q.TotalMS / (float64(q.CandidateBytes) / float64(disk.PageSize))
}

// avgAnswers returns the mean number of answers per query.
func (q querySummary) avgAnswers() float64 {
	if q.Queries == 0 {
		return 0
	}
	return float64(q.Answers) / float64(q.Queries)
}

// CoolObjectPages evicts all data and object pages from the organization's
// buffer while the R*-tree directory stays cached — the steady state of a
// query stream over a large database: the small directory is hot, the data
// pages of distant earlier queries are long evicted.
func CoolObjectPages(org store.Organization) {
	org.Env().Buf.Retain(org.Tree().IsDirPage)
}

// applied is the outcome of one op run against a store: the answer of a
// query (a k-NN answer in rank order), the verdict of a mutation.
type applied struct {
	store.QueryResult
	existed bool // insert: the store took the object; delete, update: it existed
}

// apply runs one generated op against org — the one place the harness turns
// an op into a call on a store; tech is the technique of a window query.
func apply(org store.Organization, op datagen.Op, tech store.Technique) applied {
	switch op.Kind {
	case datagen.OpInsert:
		return applied{existed: org.Insert(op.Obj, op.Key) == nil}
	case datagen.OpDelete:
		return applied{existed: org.Delete(op.ID)}
	case datagen.OpUpdate:
		return applied{existed: org.Update(op.Obj, op.Key)}
	case datagen.OpWindow:
		return applied{QueryResult: org.WindowQuery(op.Window, tech)}
	case datagen.OpPoint:
		return applied{QueryResult: org.PointQuery(op.Point)}
	case datagen.OpKNN:
		return applied{QueryResult: org.NearestQuery(op.Point, op.K).QueryResult}
	}
	panic(fmt.Sprintf("exp: unknown op kind %v", op.Kind))
}

// runCold executes n queries, the i-th given by op, cooling the data and
// object pages before each one (section 5.4 runs 678 spatially spread
// queries; only the directory stays buffer-resident).
func runCold(org store.Organization, n int, tech store.Technique, op func(i int) datagen.Op) querySummary {
	sum := querySummary{Queries: n}
	p := org.Env().Params()
	for i := 0; i < n; i++ {
		CoolObjectPages(org)
		res := apply(org, op(i), tech)
		sum.Answers += len(res.IDs)
		sum.Candidates += res.Candidates
		sum.CandidateBytes += res.CandidateBytes
		sum.TotalMS += res.Cost.TimeMS(p)
	}
	return sum
}

// runWindowQueries executes the windows against org with the technique, cold.
func runWindowQueries(org store.Organization, ws []geom.Rect, tech store.Technique) querySummary {
	return runCold(org, len(ws), tech, func(i int) datagen.Op {
		return datagen.Op{Kind: datagen.OpWindow, Window: ws[i]}
	})
}

// runPointQueries executes point queries, cold (section 5.5).
func runPointQueries(org store.Organization, pts []geom.Point) querySummary {
	return runCold(org, len(pts), store.TechComplete, func(i int) datagen.Op {
		return datagen.Op{Kind: datagen.OpPoint, Point: pts[i]}
	})
}

// runWindowOptimum computes the theoretical lower bound of Figure 10 for a
// cluster organization over the same workload.
func runWindowOptimum(c *store.Cluster, ws []geom.Rect) querySummary {
	sum := querySummary{Queries: len(ws)}
	for _, w := range ws {
		CoolObjectPages(c)
		ms, res := c.WindowQueryOptimum(w)
		sum.Answers += len(res.IDs) // zero: optimum does not refine
		sum.Candidates += res.Candidates
		sum.CandidateBytes += res.CandidateBytes
		sum.TotalMS += ms
	}
	return sum
}

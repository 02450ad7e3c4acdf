package exp

import (
	"fmt"
	"strings"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/store"
)

// ApplyResult tallies a mixed-workload batch applied to one organization.
type ApplyResult struct {
	Inserts, Deletes, Updates, Queries int
	Missing                            int // mutations the store turned down: an absent delete/update victim, a refused insert
	Answers                            int // summed answers of the embedded queries
	Cost                               disk.Cost
}

// ApplyOps applies a mixed workload to org in stream order, running embedded
// queries with the given technique, and reports counts and the modelled I/O
// charged. Workload streams generated by datagen.MixedWorkload never miss
// (they track the live set), so Missing > 0 indicates the stream was applied
// to a store it was not generated for.
func ApplyOps(org store.Organization, ops []datagen.Op, tech store.Technique) ApplyResult {
	var res ApplyResult
	var done [datagen.OpKNN + 1]int // ops that took effect, by kind
	res.Cost = measureOrg(org, func() {
		for _, op := range ops {
			r := apply(org, op, tech)
			if op.Kind < datagen.OpWindow && !r.existed {
				res.Missing++
				continue
			}
			done[op.Kind]++
			res.Answers += len(r.IDs)
		}
	})
	res.Inserts, res.Deletes, res.Updates = done[datagen.OpInsert], done[datagen.OpDelete], done[datagen.OpUpdate]
	res.Queries = done[datagen.OpWindow] + done[datagen.OpPoint] + done[datagen.OpKNN]
	return res
}

func measureOrg(org store.Organization, fn func()) disk.Cost {
	before := org.Env().Disk.Cost()
	fn()
	return org.Env().Disk.Cost().Sub(before)
}

// DynamicConfig tunes the dynamic (mixed-workload) benchmark.
type DynamicConfig struct {
	// Batches is the number of churn batches (default 5); after each batch
	// every series is re-measured with the full query set.
	Batches int
	// OpsPerBatch is the number of workload operations per batch (default:
	// a tenth of the dataset's object count).
	OpsPerBatch int
	// Mix configures the op mix and hotspot skew. Ops and Seed are managed
	// by the benchmark; all-zero fractions select the datagen default mix.
	Mix datagen.MixSpec
	// Tech is the cluster read technique of all queries (default
	// TechComplete, where clustering decay is most visible: the whole unit
	// — dead bytes included — is transferred per qualifying page).
	Tech store.Technique
}

func (c DynamicConfig) withDefaults(numObjects int) DynamicConfig {
	if c.Batches <= 0 {
		c.Batches = 5
	}
	if c.OpsPerBatch <= 0 {
		c.OpsPerBatch = numObjects / 10
		if c.OpsPerBatch < 10 {
			c.OpsPerBatch = 10
		}
	}
	if c.Mix.HotspotFrac == 0 {
		c.Mix.HotspotFrac = 0.5
	}
	return c
}

// DynamicPoint is one measurement of a series: the state after ops_applied
// workload operations. All fields are modelled (no wall-clock), so repeated
// runs produce identical points.
type DynamicPoint struct {
	OpsApplied int     `json:"ops_applied"`
	MSPer4KB   float64 `json:"ms_per_4kb"` // checkpoint query cost (Figure 8 metric)
	Answers    int     `json:"answers"`
	ChurnIOSec float64 `json:"churn_io_sec"`     // I/O of this batch's workload ops
	MaintIOSec float64 `json:"recluster_io_sec"` // I/O of this batch's maintenance
	Repacked   int     `json:"repacked_units"`
	Rebuilt    bool    `json:"rebuilt"`

	Objects    int     `json:"objects"`
	LiveBytes  int64   `json:"live_bytes"`
	DeadBytes  int64   `json:"dead_bytes"`
	Units      int     `json:"units"`
	ExtentUtil float64 `json:"extent_util"`
}

// DynamicSeries is the measurement series of one organization × policy.
type DynamicSeries struct {
	Org    string         `json:"org"`
	Policy string         `json:"policy"`
	Points []DynamicPoint `json:"points"`
}

func (s DynamicSeries) last() DynamicPoint { return s.Points[len(s.Points)-1] }

// DynamicResult is the outcome of the dynamic benchmark, emitted as
// BENCH_dynamic.json. It contains only modelled quantities and is
// deterministic in (Scale, Queries, Seed, config).
type DynamicResult struct {
	Scale       int             `json:"scale"`
	Queries     int             `json:"queries"`
	Seed        int64           `json:"seed"`
	Batches     int             `json:"batches"`
	OpsPerBatch int             `json:"ops_per_batch"`
	Technique   string          `json:"technique"`
	Series      []DynamicSeries `json:"series"`

	// Degrades: the unmaintained cluster organization's query cost rose
	// under churn. Recovers: the threshold policy's final query cost is
	// strictly below the unmaintained one — clustering decay is real and
	// repairable, the question the paper's static evaluation left open.
	Degrades bool `json:"degrades"`
	Recovers bool `json:"recovers"`
}

// Failed implements Result.
func (r DynamicResult) Failed() []string {
	return failed(verdict{"degrades", r.Degrades}, verdict{"recovers", r.Recovers})
}

func runDynamic(o Options, smoke bool, _ []int) Result {
	var cfg DynamicConfig
	if smoke {
		o = o.smoke(40)
		cfg.Batches, cfg.OpsPerBatch = 3, 400
	}
	return DynamicBench(o, cfg)
}

// dynamicSeriesSpec names one series and how to maintain it.
type dynamicSeriesSpec struct {
	kind   OrgKind
	policy recluster.Policy // nil for non-cluster organizations
}

// DynamicBench measures query cost under a mixed update workload ("Figure 5
// under churn"): every organization is built from the same dataset, the same
// deterministic op stream is applied in batches, and after each batch the
// full window-query set is re-run cold. The cluster organization runs once
// per reclustering policy; the secondary and primary organizations have no
// clustering to decay and serve as the flat baselines the paper's static
// comparison predicts.
func DynamicBench(o Options, cfg DynamicConfig) DynamicResult {
	o = o.WithDefaults()
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed,
	})
	cfg = cfg.withDefaults(len(ds.Objects))

	mix := cfg.Mix
	mix.Ops = cfg.Batches * cfg.OpsPerBatch
	mix.Seed = o.Seed + 1
	ops := ds.MixedWorkload(mix)
	ws := ds.Windows(0.001, o.Queries, o.Seed+2)

	// The policy triggers are tuned to this workload's steady state: unit
	// splits already cull dead bytes organically (a split copies only live
	// objects), so sustained churn plateaus around a 15–25% dead fraction
	// and the policies must trigger inside that band to matter.
	specs := []dynamicSeriesSpec{
		{kind: OrgSecondary},
		{kind: OrgPrimary},
		{kind: OrgCluster, policy: recluster.None{}},
		{kind: OrgCluster, policy: recluster.Threshold{TotalDeadFrac: 0.12, UnitDeadFrac: 0.05}},
		{kind: OrgCluster, policy: recluster.Incremental{MinDeadFrac: 0.05}},
		{kind: OrgCluster, policy: recluster.FullRebuild{TotalDeadFrac: 0.12}},
	}

	res := DynamicResult{
		Scale:       o.Scale,
		Queries:     o.Queries,
		Seed:        o.Seed,
		Batches:     cfg.Batches,
		OpsPerBatch: cfg.OpsPerBatch,
		Technique:   cfg.Tech.String(),
	}
	for _, spec := range specs {
		res.Series = append(res.Series, runDynamicSeries(o, cfg, ds, ops, ws, spec))
	}

	var none, threshold *DynamicSeries
	for i := range res.Series {
		s := &res.Series[i]
		if s.Org != string(OrgCluster) {
			continue
		}
		switch {
		case s.Policy == "none":
			none = s
		case strings.HasPrefix(s.Policy, "threshold"):
			threshold = s
		}
	}
	if none != nil && len(none.Points) > 1 {
		res.Degrades = none.last().MSPer4KB > none.Points[0].MSPer4KB
	}
	if none != nil && threshold != nil {
		res.Recovers = threshold.last().MSPer4KB < none.last().MSPer4KB
	}
	return res
}

func runDynamicSeries(o Options, cfg DynamicConfig, ds *datagen.Dataset,
	ops []datagen.Op, ws []geom.Rect, spec dynamicSeriesSpec) DynamicSeries {

	series := DynamicSeries{Org: string(spec.kind)}
	if spec.policy != nil {
		series.Policy = spec.policy.Name()
	}
	b := Build(spec.kind, ds, o.BuildBufPages)
	org := b.Org
	params := org.Env().Params()
	o.Progress("dynamic: built %s policy=%s", series.Org, series.Policy)

	record := func(applied int, churn disk.Cost, maint recluster.Result) {
		q := RunWindowQueries(org, ws, cfg.Tech)
		st := org.Stats()
		series.Points = append(series.Points, DynamicPoint{
			OpsApplied: applied,
			MSPer4KB:   q.MSPer4KB(),
			Answers:    q.Answers,
			ChurnIOSec: churn.TimeSec(params),
			MaintIOSec: maint.Cost.TimeSec(params),
			Repacked:   maint.RepackedUnits,
			Rebuilt:    maint.Rebuilt,
			Objects:    st.Objects,
			LiveBytes:  st.LiveBytes,
			DeadBytes:  st.DeadBytes,
			Units:      st.Units,
			ExtentUtil: st.ExtentUtil,
		})
	}

	record(0, disk.Cost{}, recluster.Result{})
	applied := 0
	for batch := 0; batch < cfg.Batches; batch++ {
		chunk := ops[batch*cfg.OpsPerBatch : (batch+1)*cfg.OpsPerBatch]
		ar := ApplyOps(org, chunk, cfg.Tech)
		// Flush dirty pages within the batch's cost window so checkpoint
		// queries do not pay the churn's deferred write-backs.
		churn := ar.Cost.Add(measureOrg(org, org.Flush))
		applied += len(chunk)

		var maint recluster.Result
		if spec.policy != nil {
			if c, ok := org.(*store.Cluster); ok {
				maint = spec.policy.Maintain(c)
				maint.Cost = maint.Cost.Add(measureOrg(org, org.Flush))
			}
		}
		record(applied, churn, maint)
		o.Progress("dynamic: %s policy=%s ops=%d ms/4KB=%.2f dead=%d",
			series.Org, series.Policy, applied, series.last().MSPer4KB, series.last().DeadBytes)
	}
	return series
}

// Render formats the result as a text report, fragmentation included.
func (r DynamicResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic update benchmark (scale=%d, %d queries/checkpoint, %d x %d ops, %s read)\n",
		r.Scale, r.Queries, r.Batches, r.OpsPerBatch, r.Technique)
	for _, s := range r.Series {
		name := s.Org
		if s.Policy != "" {
			name += " / " + s.Policy
		}
		fmt.Fprintf(&b, "\n%s:\n", name)
		fmt.Fprintf(&b, "  %8s %10s %8s %9s %9s %8s %7s %6s %9s\n",
			"ops", "ms/4KB", "answers", "churn s", "maint s", "repacked", "objects", "units", "util")
		for _, p := range s.Points {
			rebuilt := ""
			if p.Rebuilt {
				rebuilt = " (rebuilt)"
			}
			fmt.Fprintf(&b, "  %8d %10.2f %8d %9.1f %9.1f %8d %7d %6d %8.1f%%%s\n",
				p.OpsApplied, p.MSPer4KB, p.Answers, p.ChurnIOSec, p.MaintIOSec,
				p.Repacked, p.Objects, p.Units, 100*p.ExtentUtil, rebuilt)
		}
		last := s.last()
		fmt.Fprintf(&b, "  final fragmentation: %d live / %d dead bytes, %d units\n",
			last.LiveBytes, last.DeadBytes, last.Units)
	}
	fmt.Fprintf(&b, "\nclustering degrades under churn:        %v\n", r.Degrades)
	fmt.Fprintf(&b, "threshold reclustering recovers it:     %v\n", r.Recovers)
	return b.String()
}

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

// dynamicTech is the cluster read technique of all queries of the dynamic
// benchmark: complete reads, where clustering decay is most visible — the
// whole unit, dead bytes included, is transferred per qualifying page.
const dynamicTech = store.TechComplete

// dynamicPoint is one measurement of a series: the state after ops_applied
// workload operations. All fields are modelled (no wall-clock), so repeated
// runs produce identical points.
type dynamicPoint struct {
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

// dynamicSeries is the measurement series of one organization × policy.
type dynamicSeries struct {
	Org    string         `json:"org"`
	Policy string         `json:"policy"`
	Points []dynamicPoint `json:"points"`
}

func (s dynamicSeries) last() dynamicPoint { return s.Points[len(s.Points)-1] }

// dynamicResult is the outcome of the dynamic benchmark, emitted as
// BENCH_dynamic.json. It contains only modelled quantities and is
// deterministic in (Scale, Queries, Seed, config).
type dynamicResult struct {
	Scale       int             `json:"scale"`
	Queries     int             `json:"queries"`
	Seed        int64           `json:"seed"`
	Batches     int             `json:"batches"`
	OpsPerBatch int             `json:"ops_per_batch"`
	Technique   string          `json:"technique"`
	Series      []dynamicSeries `json:"series"`

	// Degrades: the unmaintained cluster organization's query cost rose
	// under churn. Recovers: the threshold policy's final query cost is
	// strictly below the unmaintained one — clustering decay is real and
	// repairable, the question the paper's static evaluation left open.
	Degrades bool `json:"degrades"`
	Recovers bool `json:"recovers"`
}

// Failed implements result.
func (r dynamicResult) Failed() []string {
	return failed(verdict{"degrades", r.Degrades}, verdict{"recovers", r.Recovers})
}

// dynamicSeriesSpec names one series and how to maintain it.
type dynamicSeriesSpec struct {
	kind   orgKind
	policy recluster.Policy // nil for non-cluster organizations
}

// dynamicBench measures query cost under a mixed update workload ("Figure 5
// under churn"): every organization is built from the same dataset, the same
// deterministic op stream is applied in batches, and after each batch the
// full window-query set is re-run cold. The cluster organization runs once
// per reclustering policy; the secondary and primary organizations have no
// clustering to decay and serve as the flat baselines the paper's static
// comparison predicts. The churn runs in 5 batches of a tenth of the
// dataset each (3 of 400 ops at the smoke preset), from datagen's default op
// mix with half the ops in a hotspot.
func dynamicBench(o Options, smoke bool, _ []int) result {
	o = o.WithDefaults()
	batches, opsPerBatch := 5, 0
	if smoke {
		o = o.smoke(40)
		batches, opsPerBatch = 3, 400
	}
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed,
	})
	if opsPerBatch == 0 {
		opsPerBatch = max(len(ds.Objects)/10, 10)
	}
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: batches * opsPerBatch, HotspotFrac: 0.5, Seed: o.Seed + 1})
	ws := ds.Windows(0.001, o.Queries, o.Seed+2)

	// The policy triggers are tuned to this workload's steady state: unit
	// splits already cull dead bytes organically (a split copies only live
	// objects), so sustained churn plateaus around a 15–25% dead fraction
	// and the policies must trigger inside that band to matter.
	specs := []dynamicSeriesSpec{
		{kind: orgSecondary},
		{kind: orgPrimary},
		{kind: orgCluster, policy: recluster.None{}},
		{kind: orgCluster, policy: recluster.Threshold{TotalDeadFrac: 0.12, UnitDeadFrac: 0.05}},
		{kind: orgCluster, policy: recluster.Incremental{MinDeadFrac: 0.05}},
		{kind: orgCluster, policy: recluster.FullRebuild{TotalDeadFrac: 0.12}},
	}

	res := dynamicResult{
		Scale:       o.Scale,
		Queries:     o.Queries,
		Seed:        o.Seed,
		Batches:     batches,
		OpsPerBatch: opsPerBatch,
		Technique:   dynamicTech.String(),
	}
	for _, spec := range specs {
		res.Series = append(res.Series, runDynamicSeries(o, opsPerBatch, ds, ops, ws, spec))
	}

	var none, threshold *dynamicSeries
	for i := range res.Series {
		s := &res.Series[i]
		if s.Org != string(orgCluster) {
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

// runDynamicSeries measures one series: the store is built, then ops are
// applied in batches of opsPerBatch, each followed by the series' maintenance
// and a checkpoint.
func runDynamicSeries(o Options, opsPerBatch int, ds *datagen.Dataset,
	ops []datagen.Op, ws []geom.Rect, spec dynamicSeriesSpec) dynamicSeries {

	series := dynamicSeries{Org: string(spec.kind)}
	if spec.policy != nil {
		series.Policy = spec.policy.Name()
	}
	b := build(spec.kind, ds, o.storeConfig())
	org := b.Org
	params := org.Env().Params()
	o.Progress("dynamic: built %s policy=%s", series.Org, series.Policy)

	record := func(applied int, churn disk.Cost, maint recluster.Result) {
		q := runWindowQueries(org, ws, dynamicTech)
		st := org.Stats()
		series.Points = append(series.Points, dynamicPoint{
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
	for batch := 0; batch < len(ops)/opsPerBatch; batch++ {
		chunk := ops[batch*opsPerBatch : (batch+1)*opsPerBatch]
		ar := ApplyOps(org, chunk, dynamicTech)
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
func (r dynamicResult) Render() string {
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

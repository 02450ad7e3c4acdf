package recluster

import (
	"fmt"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/store"
)

// Result reports one maintenance invocation.
type Result struct {
	RepackedUnits int       // units rewritten without their dead bytes
	Rebuilt       bool      // whole organization reloaded in Hilbert order
	Cost          disk.Cost // modelled I/O charged by the maintenance
}

// Add accumulates r2 into r.
func (r Result) Add(r2 Result) Result {
	return Result{
		RepackedUnits: r.RepackedUnits + r2.RepackedUnits,
		Rebuilt:       r.Rebuilt || r2.Rebuilt,
		Cost:          r.Cost.Add(r2.Cost),
	}
}

// Policy decides, from the organization's fragmentation, which maintenance
// to run. Maintain is called between workload batches (or after every
// operation, if the caller likes); it must be cheap when there is nothing to
// do. Implementations mutate the organization through its public repack and
// rebuild primitives, which take the environment's write lock — Maintain is
// therefore safe to run concurrently with queries, which take its read lock.
type Policy interface {
	Name() string
	Maintain(c *store.Cluster) Result
}

// measure runs op and returns the disk cost it charged.
func measure(c *store.Cluster, op func()) disk.Cost {
	before := c.Env().Disk.Cost()
	op()
	return c.Env().Disk.Cost().Sub(before)
}

// Threshold repacks every degraded unit once the organization-wide dead
// fraction crosses TotalDeadFrac: all units whose own dead fraction is at
// least UnitDeadFrac are rewritten. Between crossings it does nothing, so
// maintenance cost arrives in bursts — the classic "reorganize when
// fragmentation exceeds a bound" policy.
type Threshold struct {
	// TotalDeadFrac triggers maintenance (default 0.25).
	TotalDeadFrac float64
	// UnitDeadFrac selects the units to repack (default 0.10).
	UnitDeadFrac float64
}

func (p Threshold) params() (total, unit float64) {
	total, unit = p.TotalDeadFrac, p.UnitDeadFrac
	if total <= 0 {
		total = 0.25
	}
	if unit <= 0 {
		unit = 0.10
	}
	return total, unit
}

// Name implements Policy.
func (p Threshold) Name() string {
	total, unit := p.params()
	return fmt.Sprintf("threshold(%.2f/%.2f)", total, unit)
}

// Maintain implements Policy.
func (p Threshold) Maintain(c *store.Cluster) Result {
	total, unit := p.params()
	if c.Frag().DeadFrac() < total {
		return Result{}
	}
	var res Result
	res.Cost = measure(c, func() {
		for _, uf := range c.UnitFrags() {
			if uf.DeadFrac() < unit {
				break // UnitFrags is sorted worst first
			}
			if c.RepackUnit(uf.Leaf) {
				res.RepackedUnits++
			}
		}
	})
	return res
}

// Incremental repacks at most one unit per call — the worst one, if its dead
// fraction reaches MinDeadFrac. It spreads maintenance I/O evenly through
// the workload instead of bursting, at the price of tolerating a baseline of
// fragmentation.
type Incremental struct {
	// MinDeadFrac is the worst unit's dead fraction below which nothing is
	// done (default 0.10).
	MinDeadFrac float64
}

func (p Incremental) min() float64 {
	if p.MinDeadFrac <= 0 {
		return 0.10
	}
	return p.MinDeadFrac
}

// Name implements Policy.
func (p Incremental) Name() string { return fmt.Sprintf("incremental(%.2f)", p.min()) }

// Maintain implements Policy.
func (p Incremental) Maintain(c *store.Cluster) Result {
	worst := c.Frag().Worst
	if worst.DeadFrac() < p.min() {
		return Result{}
	}
	var res Result
	res.Cost = measure(c, func() {
		if c.RepackUnit(worst.Leaf) {
			res.RepackedUnits = 1
		}
	})
	return res
}

// FullRebuild reloads the whole organization in Hilbert order once the
// dead fraction reaches TotalDeadFrac — maximal restored clustering
// (bulk-load quality) for maximal maintenance cost.
type FullRebuild struct {
	// TotalDeadFrac triggers the rebuild (default 0.25).
	TotalDeadFrac float64
	// Fill is the bulk loader's target utilization; 0 selects its default.
	Fill float64
}

func (p FullRebuild) total() float64 {
	if p.TotalDeadFrac <= 0 {
		return 0.25
	}
	return p.TotalDeadFrac
}

// Name implements Policy.
func (p FullRebuild) Name() string { return fmt.Sprintf("rebuild(%.2f)", p.total()) }

// Maintain implements Policy.
func (p FullRebuild) Maintain(c *store.Cluster) Result {
	fr := c.Frag()
	if fr.Units == 0 || fr.DeadFrac() < p.total() {
		return Result{}
	}
	var res Result
	res.Cost = measure(c, func() {
		c.Rebuild(p.Fill)
		res.Rebuilt = true
	})
	return res
}

// None is the do-nothing baseline policy.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Maintain implements Policy.
func (None) Maintain(*store.Cluster) Result { return Result{} }

// ByName returns the built-in policy with the given name ("none",
// "threshold", "incremental", "rebuild") with default parameters, or an
// error for an unknown name.
func ByName(name string) (Policy, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "threshold":
		return Threshold{}, nil
	case "incremental":
		return Incremental{}, nil
	case "rebuild":
		return FullRebuild{}, nil
	}
	return nil, fmt.Errorf("recluster: unknown policy %q", name)
}

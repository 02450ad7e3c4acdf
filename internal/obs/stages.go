package obs

import "sync/atomic"

// Stage clocks: atomic busy-time accumulators the parallel engines fill so a
// benchmark can attribute wall-clock time to serialized vs parallel stages.
// All accumulators are summed busy nanoseconds — for a stage run by W workers
// the wall-clock floor is the sum divided by W; for a serialized stage the
// sum IS wall-clock.

// JoinStages attributes a join run (join.Run): the dispatcher goroutine's
// serialized stages against the worker pool's parallel refinement.
type JoinStages struct {
	// MBRJoinNS is phase 1 (the synchronized R*-tree traversal), serialized.
	MBRJoinNS atomic.Int64
	// PrepareNS is the dispatcher's per-group transfer preparation (distinct
	// IDs, PrepareFetch charging and page capture), serialized — by design,
	// so modelled I/O is charged in deterministic plane order.
	PrepareNS atomic.Int64
	// StallNS is how long the dispatcher blocked handing prepared groups to
	// a saturated worker pool (zero when refinement keeps up).
	StallNS atomic.Int64
	// RefineNS is summed worker busy time in materialization + exact tests.
	RefineNS atomic.Int64
}

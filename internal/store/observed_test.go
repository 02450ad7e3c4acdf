package store

import (
	"testing"

	"spatialcluster/internal/obs"
)

// TestObservedWindowQueriesMatchUnobserved: attaching stage clocks to the
// driver must not change any answer — of a window run or of a mixed batch —
// the clocks must actually accumulate, and only when a sink is passed.
func TestObservedWindowQueriesMatchUnobserved(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	ws := ds.Windows(0.005, 32, 3)
	window := func(i int) (answers, candidates int) {
		res := c.WindowQuery(ws[i], TechSLM)
		return len(res.IDs), res.Candidates
	}

	plain := RunWindowQueriesParallel(c, ws, TechSLM, 4)

	var st obs.ParallelStages
	c.Env().Buf.Clear()
	c.Env().Disk.ResetCost()
	observed := RunQueriesParallel(c, len(ws), 4, &st, window)

	if observed.Answers != plain.Answers || observed.Candidates != plain.Candidates {
		t.Fatalf("observed answers/cands %d/%d, unobserved %d/%d",
			observed.Answers, observed.Candidates, plain.Answers, plain.Candidates)
	}
	if st.ExecNS.Load() <= 0 {
		t.Fatalf("no execution time accumulated: exec=%d", st.ExecNS.Load())
	}
	if st.LockWaitNS.Load() < 0 {
		t.Fatalf("negative lock wait: %d", st.LockWaitNS.Load())
	}
	// Summed busy time cannot exceed workers × wall (with slack for clock
	// granularity).
	wallNS := observed.WallSec * 1e9
	if busy := float64(st.ExecNS.Load() + st.LockWaitNS.Load()); busy > 4*wallNS*1.5 {
		t.Fatalf("busy %.0f ns exceeds %d×wall %.0f ns", busy, 4, wallNS)
	}

	// A run without the sink leaves it alone.
	exec, wait := st.ExecNS.Load(), st.LockWaitNS.Load()
	RunQueriesParallel(c, len(ws), 4, nil, window)
	if st.ExecNS.Load() != exec || st.LockWaitNS.Load() != wait {
		t.Fatal("a driver call without a stages sink moved the clocks")
	}

	// Mixed kinds: same per-query answers with the clocks on, and the clocks
	// keep accumulating.
	pts := ds.Points(8, 5)
	qs := mixedBatch(ws[:8], pts, []int{1, 10, 3, 10, 10, 7, 10, 10})
	tr := runMixed(c, qs, 4, &st)
	checkMixedAgainstSerial(t, "observed mixed batch", c, qs, tr)
	if st.ExecNS.Load() <= exec {
		t.Fatalf("mixed batch accumulated no execution time: %d after %d", st.ExecNS.Load(), exec)
	}
}

package store

import (
	"sync"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
)

// batchWorkerCounts are the goroutine counts of the mixed-batch suites: one
// alone, two side by side, and more than most batches have queries of one
// kind.
var batchWorkerCounts = []int{1, 2, 8}

// mixedQuery is one query of a mixed batch with its own result slot: window,
// point and k-NN queries (each k-NN with its own k) run side by side, as a
// server's requests do.
type mixedQuery struct {
	kind byte // 'w' window, 'p' point, 'n' k-NN
	w    geom.Rect
	pt   geom.Point
	k    int

	qr QueryResult
	nr NearestResult
}

// mixedBatch interleaves the queries kind by kind, so every worker count
// hands neighbouring indexes of different kinds to different workers.
func mixedBatch(ws []geom.Rect, pts []geom.Point, ks []int) []mixedQuery {
	var qs []mixedQuery
	for i := 0; i < len(ws) || i < len(pts); i++ {
		if i < len(ws) {
			qs = append(qs, mixedQuery{kind: 'w', w: ws[i]})
		}
		if i < len(pts) {
			qs = append(qs, mixedQuery{kind: 'p', pt: pts[i]}, mixedQuery{kind: 'n', pt: pts[i], k: ks[i]})
		}
	}
	return qs
}

// runMixed executes the batch on workers goroutines.
func runMixed(org Organization, qs []mixedQuery, workers int) {
	inParallel(len(qs), workers, func(i int) {
		q := &qs[i]
		switch q.kind {
		case 'w':
			q.qr = org.WindowQuery(q.w, TechComplete)
		case 'p':
			q.qr = org.PointQuery(q.pt)
		case 'n':
			q.nr = org.NearestQuery(q.pt, q.k)
		}
	})
}

// checkMixedAgainstSerial compares every result slot of an executed batch
// with the serial query method on the (quiescent) organization: window and
// point answers as sets plus the candidate count, k-NN rank by rank.
func checkMixedAgainstSerial(t *testing.T, what string, org Organization, qs []mixedQuery) {
	t.Helper()
	for i, q := range qs {
		switch q.kind {
		case 'w', 'p':
			want := org.PointQuery(q.pt)
			if q.kind == 'w' {
				want = org.WindowQuery(q.w, TechComplete)
			}
			if !idsEqual(sortedIDs(q.qr.IDs), sortedIDs(want.IDs)) {
				t.Fatalf("%s: query %d (%c) answers differ from serial", what, i, q.kind)
			}
			if q.qr.Candidates != want.Candidates {
				t.Fatalf("%s: query %d (%c) candidates %d, serial %d", what, i, q.kind, q.qr.Candidates, want.Candidates)
			}
		case 'n':
			want := org.NearestQuery(q.pt, q.k)
			if !idsEqual(q.nr.IDs, want.IDs) { // ordered: rank by rank
				t.Fatalf("%s: query %d (%d-NN) answers differ from serial", what, i, q.k)
			}
		}
	}
}

// TestBatchEntryPointsMatchSerial pins concurrent queries against the serial
// query methods on a quiescent store: with window, point and k-NN queries
// mixed on several goroutines, every query's own result must be identical in
// content (and, for k-NN, rank order) for every organization and goroutine
// count.
func TestBatchEntryPointsMatchSerial(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 21,
	})
	ws := append(ds.Windows(0.001, 10, 1), ds.Windows(0.01, 5, 2)...)
	pts := ds.Points(12, 3)
	ks := make([]int, len(pts))
	for i := range ks {
		ks[i] = 1 + (i%3)*9 // k ∈ {1, 10, 19}: batches may mix k
	}

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		org := buildOrg(t, kind, ds, 256)
		for _, workers := range batchWorkerCounts {
			qs := mixedBatch(ws, pts, ks)
			runMixed(org, qs, workers)
			checkMixedAgainstSerial(t, kind, org, qs)
		}
	}
}

// TestBatchEntryPointsUnderContention runs mixed batches concurrently while a
// mutator churns the same store — the server's steady state.
// During the contended phase only invariants are checked (the race detector
// does the heavy lifting); after quiescing, the mixed batch at every worker
// count must again equal a fresh serial pass.
func TestBatchEntryPointsUnderContention(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 23,
	})
	ws := ds.Windows(0.002, 8, 4)
	pts := ds.Points(8, 5)
	ks := []int{5, 1, 5, 12, 5, 5, 3, 5}

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		for _, workers := range batchWorkerCounts {
			org := buildOrg(t, kind, ds, 256)
			ops := ds.MixedWorkload(datagen.MixSpec{Ops: 400, HotspotFrac: 0.5, Seed: 24})

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Mutator: the deterministic churn stream, then flush.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for _, op := range ops {
					switch op.Kind {
					case datagen.OpInsert:
						org.Insert(op.Obj, op.Key)
					case datagen.OpDelete:
						org.Delete(op.ID)
					case datagen.OpUpdate:
						org.Update(op.Obj, op.Key)
					case datagen.OpWindow:
						// The mutator's embedded queries interleave reads
						// with its writes.
						org.WindowQuery(op.Window, TechComplete)
					}
				}
				org.Flush()
			}()
			// Readers: run the mixed batch over and over until the mutator
			// finishes. Results vary with interleaving; k-NN rank
			// ordering and answer-count sanity must hold throughout.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						qs := mixedBatch(ws, pts, ks)
						runMixed(org, qs, workers)
						for _, q := range qs {
							if len(q.qr.IDs) > q.qr.Candidates {
								t.Errorf("%c answers %d exceed candidates %d", q.kind, len(q.qr.IDs), q.qr.Candidates)
								return
							}
							if len(q.nr.IDs) > q.k {
								t.Errorf("k-NN answers %d exceed k=%d", len(q.nr.IDs), q.k)
								return
							}
							for j := 1; j < len(q.nr.Dists); j++ {
								if q.nr.Dists[j] < q.nr.Dists[j-1] {
									t.Errorf("k-NN distances out of order")
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// Quiesced: concurrent == serial, per query, at this count.
			qs := mixedBatch(ws, pts, ks)
			runMixed(org, qs, workers)
			checkMixedAgainstSerial(t, kind+" after quiesce", org, qs)
		}
	}
}

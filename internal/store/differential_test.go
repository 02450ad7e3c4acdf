package store

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/object"
)

// sortedIDs returns a sorted copy of ids (window and point answers are sets;
// only k-NN answers are ordered).
func sortedIDs(ids []object.ID) []object.ID {
	out := append([]object.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOrganizationsAgree is the seeded differential suite: the three
// organizations are different physical layouts of the same logical relation,
// so window, point and k-NN answer sets must be identical across them — on
// the freshly built stores, again after a deterministic mixed-workload
// churn, and regardless of the worker count of the parallel read paths.
// Window centers mostly miss Map 1's polylines, so point queries also run on
// vertices of the objects stored at the time; at least half of the point
// comparisons must have a non-empty answer, or agreeing answers would prove
// little.
func TestOrganizationsAgree(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 77,
	})
	kinds := []string{"secondary", "primary", "cluster"}
	orgs := make([]Organization, len(kinds))
	for i, kind := range kinds {
		orgs[i] = buildOrg(t, kind, ds, 256)
	}

	ws := append(ds.Windows(0.001, 12, 5), ds.Windows(0.01, 6, 6)...)
	pts := ds.Points(12, 7)
	ks := []int{1, 10, 100}
	var pointsCompared, pointsNonEmpty int

	checkAgreement := func(phase string, stored *datagen.Dataset) {
		t.Helper()
		// Window queries: same answer set for every organization and every
		// cluster read technique.
		for wi, w := range ws {
			want := sortedIDs(orgs[0].WindowQuery(w, TechComplete).IDs)
			for i, org := range orgs[1:] {
				got := sortedIDs(org.WindowQuery(w, TechComplete).IDs)
				if !idsEqual(got, want) {
					t.Fatalf("%s: window %d: %s answers %v, %s answers %v",
						phase, wi, kinds[i+1], got, kinds[0], want)
				}
			}
			if c, ok := orgs[2].(*Cluster); ok {
				for _, tech := range []Technique{TechThreshold, TechSLM, TechPageByPage} {
					if got := sortedIDs(c.WindowQuery(w, tech).IDs); !idsEqual(got, want) {
						t.Fatalf("%s: window %d: cluster %v answers differ", phase, wi, tech)
					}
				}
			}
		}
		// Point queries.
		for pi, pt := range append(slices.Clip(pts), stored.VertexPoints(24, 8)...) {
			want := sortedIDs(orgs[0].PointQuery(pt).IDs)
			pointsCompared++
			if len(want) > 0 {
				pointsNonEmpty++
			}
			for i, org := range orgs[1:] {
				if got := sortedIDs(org.PointQuery(pt).IDs); !idsEqual(got, want) {
					t.Fatalf("%s: point %d: %s and %s answers differ",
						phase, pi, kinds[i+1], kinds[0])
				}
			}
		}
		// k-NN queries: the answer is an ordered list; it must match rank by
		// rank (the tie-break by ID makes it a deterministic function of the
		// stored set, not of the physical layout).
		for _, k := range ks {
			for pi, pt := range pts {
				want := orgs[0].NearestQuery(pt, k)
				for i, org := range orgs[1:] {
					got := org.NearestQuery(pt, k)
					if !idsEqual(got.IDs, want.IDs) {
						t.Fatalf("%s: k=%d point %d: %s answers %v, %s answers %v",
							phase, k, pi, kinds[i+1], got.IDs, kinds[0], want.IDs)
					}
				}
			}
		}
		// Concurrent queries: aggregate answers must equal the serial
		// aggregate for every organization and goroutine count.
		for oi, org := range orgs {
			var serialW, serialN int
			for _, w := range ws {
				serialW += len(org.WindowQuery(w, TechComplete).IDs)
			}
			for _, pt := range pts {
				serialN += len(org.NearestQuery(pt, 10).IDs)
			}
			for _, workers := range []int{1, 3, 8} {
				var answersW, answersN atomic.Int64
				inParallel(len(ws), workers, func(i int) { answersW.Add(int64(len(org.WindowQuery(ws[i], TechComplete).IDs))) })
				inParallel(len(pts), workers, func(i int) { answersN.Add(int64(len(org.NearestQuery(pts[i], 10).IDs))) })
				if int(answersW.Load()) != serialW {
					t.Fatalf("%s: %s windows on %d goroutines: %d answers, want %d",
						phase, kinds[oi], workers, answersW.Load(), serialW)
				}
				if int(answersN.Load()) != serialN {
					t.Fatalf("%s: %s k-NN on %d goroutines: %d answers, want %d",
						phase, kinds[oi], workers, answersN.Load(), serialN)
				}
			}
		}
	}

	checkAgreement("fresh", ds)

	// The same deterministic churn stream against every organization, then
	// the whole agreement suite again on the mutated stores.
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 600, HotspotFrac: 0.5, Seed: 78})
	for i, org := range orgs {
		ls := newLiveSet(ds)
		applyMix(t, org, ls, ops)
		if i == 0 {
			// Sanity: the stream actually mutated the store.
			if got := org.Stats().Objects; got == len(ds.Objects) {
				t.Logf("churn left the object count unchanged at %d", got)
			}
		}
	}

	// The live set after the stream: the churned phase's point queries lie
	// on its objects, and it is the ground truth checked at the end.
	ls := newLiveSet(ds)
	for _, op := range ops {
		switch op.Kind {
		case datagen.OpInsert, datagen.OpUpdate:
			ls.objs[op.Obj.ID] = op.Obj
			ls.mbrs[op.Obj.ID] = op.Key
		case datagen.OpDelete:
			delete(ls.objs, op.ID)
			delete(ls.mbrs, op.ID)
		}
	}
	live := &datagen.Dataset{Objects: make([]*object.Object, 0, len(ls.objs))}
	for _, o := range ls.objs {
		live.Objects = append(live.Objects, o)
	}
	slices.SortFunc(live.Objects, func(a, b *object.Object) int { return cmp.Compare(a.ID, b.ID) })
	checkAgreement("after churn", live)
	t.Logf("point: %d of %d comparisons non-empty", pointsNonEmpty, pointsCompared)
	if 2*pointsNonEmpty < pointsCompared {
		t.Errorf("point: only %d of %d comparisons had a non-empty answer", pointsNonEmpty, pointsCompared)
	}

	// Agreement must also hold against ground truth: the cluster answers
	// equal a brute-force scan of the live set.
	for _, pt := range pts[:4] {
		wantIDs, _ := bruteKNN(ls.objs, pt, 10)
		got := orgs[2].NearestQuery(pt, 10)
		if !idsEqual(got.IDs, wantIDs) {
			t.Fatalf("after churn: cluster 10-NN at %v = %v, brute force %v", pt, got.IDs, wantIDs)
		}
	}
}

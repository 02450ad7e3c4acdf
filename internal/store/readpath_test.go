package store

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/disk/filebackend"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// --- the materialising read path, kept as the reference -------------------
//
// What the store did before its read path scanned pages in place: decode the
// whole node copying every payload, capture and copy every candidate's bytes,
// object.Unmarshal each onto the heap. It issues the buffer and disk calls of
// the old code in the old order, so run beside the real path on a replica of
// the store it must produce the same answers AND leave the same counters.

func refNode(t *rtree.Tree, id disk.PageID) *rtree.Node {
	n := t.ReadNode(id)
	for i := range n.Entries {
		n.Entries[i].Payload = append([]byte(nil), n.Entries[i].Payload...)
	}
	return n
}

// refLeaves visits, in traversal order, every data page with entries
// intersecting w, and those entries.
func refLeaves(t *rtree.Tree, id disk.PageID, w geom.Rect, fn func(n *rtree.Node, hit []rtree.Entry)) {
	n := refNode(t, id)
	var hit []rtree.Entry
	for _, e := range n.Entries {
		if !e.Rect.Intersects(w) {
			continue
		}
		if n.Level > 0 {
			refLeaves(t, e.Child, w, fn)
		} else {
			hit = append(hit, e)
		}
	}
	if len(hit) > 0 {
		fn(n, hit)
	}
}

// refFetch materialises the objects behind leaf entries. The secondary and
// primary organizations read entry by entry; the cluster organization runs
// one unit access for all of them, capturing and copying page by page.
func refFetch(org Organization, leaf disk.PageID, entries []rtree.Entry, tech Technique) []*object.Object {
	must := func(o *object.Object, err error) *object.Object {
		if err != nil {
			panic(err)
		}
		return o
	}
	var out []*object.Object
	switch o := org.(type) {
	case *Secondary:
		for _, e := range entries {
			id, _ := decodePayload(e.Payload)
			out = append(out, must(object.Unmarshal(append([]byte(nil), o.file.ReadDirect(o.refs[id], nil)...))))
		}
	case *Primary:
		for _, e := range entries {
			raw := e.Payload[1:]
			if e.Payload[0] == primOverflow {
				id, _ := decodePayload(raw)
				raw = o.overflow.ReadDirect(o.refs[id], nil)
			}
			out = append(out, must(object.Unmarshal(append([]byte(nil), raw...))))
		}
	case *Cluster:
		u, m := o.unitFor(leaf), o.env.Buf
		span := func(uo unitObject) (int, int) { return uo.off / disk.PageSize, (uo.off + uo.size - 1) / disk.PageSize }
		seen := map[disk.PageID]bool{}
		var requested []disk.PageID
		var uos []unitObject
		for _, e := range entries {
			id, _ := decodePayload(e.Payload)
			uo := u.objects[u.index[id]]
			uos = append(uos, uo)
			for first, last := span(uo); first <= last; first++ {
				if pid := u.extent.Start + disk.PageID(first); !seen[pid] {
					seen[pid] = true
					requested = append(requested, pid)
				}
			}
		}
		o.fetchPlan(u, m, tech, &scratch{pages: requested})
		pinned := m.PinPages(nil, requested)
		for _, uo := range uos {
			raw := make([]byte, 0, uo.size)
			in := uo.off % disk.PageSize
			for p, last := span(uo); p <= last; p++ {
				pg := u.tailBuf
				if p != u.tailIdx || pg == nil {
					var ok bool
					if pg, ok = m.Touch(u.extent.Start + disk.PageID(p)); !ok {
						pg = m.Get(u.extent.Start + disk.PageID(p))
					}
				}
				raw = append(raw, pg[in:min(disk.PageSize, in+uo.size-len(raw))]...)
				in = 0
			}
			out = append(out, must(object.Unmarshal(raw)))
		}
		m.UnpinPages(pinned)
	}
	return out
}

func refWindow(org Organization, w geom.Rect, tech Technique, pred func(*object.Object) bool) QueryResult {
	var res QueryResult
	c, clustered := org.(*Cluster)
	res.Tally = tallied(org.Env(), func() {
		refLeaves(org.Tree(), org.Tree().Root(), w, func(n *rtree.Node, hit []rtree.Entry) {
			groups := [][]rtree.Entry{hit}
			eff := tech
			if clustered && tech == TechThreshold {
				eff = TechComplete
				if n.Rect().OverlapDegree(w) < c.thresholdFor(c.unitFor(n.ID)) {
					eff = TechPageByPage
				}
			}
			if !clustered { // one independent read per entry
				groups = groups[:0]
				for i := range hit {
					groups = append(groups, hit[i:i+1])
				}
			}
			for _, g := range groups {
				for i, o := range refFetch(org, n.ID, g, eff) {
					_, size := DecodeEntryID(org, g[i])
					res.Candidates++
					res.CandidateBytes += int64(size)
					if pred(o) {
						res.IDs = append(res.IDs, o.ID)
					}
				}
			}
		})
	})
	return res
}

// refNearest is the k-NN browse refining every candidate it fetches, after
// the page's entries are bounded by their keys (the k-th exact distance so
// far, and the k-th smallest of those distances and the keys' MaxDist) and
// ordered by MinDist, and reading them with vector read. beyond
// counts the fetched candidates whose key was already farther than the k-th
// best distance when their turn came: the ones NearestQuery leaves
// unrefined. unread counts the entries the upper bound kept from the read.
func refNearest(org Organization, pt geom.Point, k int) (res NearestResult, beyond, unread int) {
	if k <= 0 {
		return res, 0, 0
	}
	t := org.Tree()
	acc := knnAcc{k: k}
	type item struct {
		page disk.PageID
		dist float64
	}
	res.Tally = tallied(org.Env(), func() {
		queue := []item{{page: t.Root()}} // FIFO among equals: scanning for a strict minimum keeps (dist, seq) order
		for len(queue) > 0 {
			best := 0
			for i := range queue {
				if queue[i].dist < queue[best].dist {
					best = i
				}
			}
			it := queue[best]
			queue = append(queue[:best], queue[best+1:]...)
			if acc.full() && it.dist > acc.bound() {
				return
			}
			n := refNode(t, it.page)
			var keep []rtree.Entry
			var upper []float64 // what bounds the k-th distance from above
			for _, c := range acc.cands {
				upper = append(upper, c.dist)
			}
			for _, e := range n.Entries {
				if n.Level > 0 {
					queue = append(queue, item{page: e.Child, dist: e.Rect.MinDist(pt)})
				} else if !acc.full() || !(e.Rect.MinDist(pt) > acc.bound()) {
					keep = append(keep, e)
					upper = append(upper, e.Rect.MaxDist(pt))
				}
			}
			if len(upper) >= k {
				sort.Float64s(upper)
				u := upper[k-1]
				u += knnSlack * (u + math.Abs(pt.X) + math.Abs(pt.Y))
				n := len(keep)
				keep = slices.DeleteFunc(keep, func(e rtree.Entry) bool { return e.Rect.MinDist(pt) > u })
				unread += n - len(keep)
			}
			if len(keep) == 0 {
				continue
			}
			sort.SliceStable(keep, func(i, j int) bool { return keep[i].Rect.MinDist(pt) < keep[j].Rect.MinDist(pt) })
			for i, o := range refFetch(org, n.ID, keep, TechSLMVector) {
				res.Candidates++
				res.CandidateBytes += int64(o.Size())
				if acc.full() && keep[i].Rect.MinDist(pt) > acc.bound() {
					beyond++
				}
				acc.add(knnCand{id: o.ID, dist: o.Geom.DistToPoint(pt)})
			}
		}
	})
	res.IDs, res.Dists = make([]object.ID, len(acc.cands)), make([]float64, len(acc.cands))
	for i, c := range acc.cands {
		res.IDs[i], res.Dists[i] = c.id, c.dist
	}
	return res, beyond, unread
}

// counters is everything a query may move besides its answer.
type counters struct {
	Buf  buffer.Stats
	Disk disk.Cost
}

func countersOf(env *Env) counters { return counters{env.Buf.Stats(), env.Disk.Cost()} }

// since is the tally of what moved the counters from before to c.
func (c counters) since(before counters) disk.Tally {
	return disk.Tally{
		Cost:   c.Disk.Sub(before.Disk),
		Hits:   c.Buf.Hits - before.Buf.Hits,
		Misses: c.Buf.Misses - before.Buf.Misses,
	}
}

// tallied runs op and returns the global counter deltas it caused: the tally
// a query keeps for itself, when nothing runs beside it.
func tallied(env *Env, op func()) disk.Tally {
	before := countersOf(env)
	op()
	return countersOf(env).since(before)
}

// TestReadPathMatchesMaterialisingReference pins the in-place read path to
// the algorithm it replaced: for all three organizations (fixed leaves for
// the secondary and cluster organizations, variable leaves for the primary),
// freshly built and churned 30/40/30, every window, point and k-NN query
// under every read technique returns identical IDs (order included), Dists,
// Candidates, CandidateBytes and tally (Cost, hits, misses), and moves the
// buffer and disk counters identically — on a buffer small enough that LRU
// order decides the misses.
func TestReadPathMatchesMaterialisingReference(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 21})
	ws := append(ds.Windows(0.001, 8, 5), ds.Windows(0.02, 4, 6)...)
	pts := ds.Points(8, 7)
	techs := []Technique{TechComplete, TechThreshold, TechSLM, TechSLMVector, TechPageByPage}
	churn := ds.MixedWorkload(datagen.MixSpec{Ops: 400, InsertFrac: 0.3, UpdateFrac: 0.4, DeleteFrac: 0.3, HotspotFrac: 0.5, Seed: 22})

	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			got, ref := buildOrg(t, kind, ds, 24), buildOrg(t, kind, ds, 24)
			same := func(label string, a, b any) {
				t.Helper()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s:\n  read path %+v\n  reference %+v", label, a, b)
				}
				if gc, rc := countersOf(got.Env()), countersOf(ref.Env()); gc != rc {
					t.Fatalf("%s: counters diverge:\n  read path %+v\n  reference %+v", label, gc, rc)
				}
			}
			for _, phase := range []string{"fresh", "churned"} {
				for _, tech := range techs {
					for i, w := range ws {
						same(fmt.Sprintf("%s %v window %d", phase, tech, i), got.WindowQuery(w, tech),
							refWindow(ref, w, tech, func(o *object.Object) bool { return o.Geom.IntersectsRect(w) }))
					}
					for i, pt := range pts {
						same(fmt.Sprintf("%s %v point %d", phase, tech, i), got.PointQuery(pt),
							refWindow(ref, geom.RectFromPoint(pt), TechPageByPage, func(o *object.Object) bool { return o.Geom.ContainsPoint(pt) }))
						want, _, _ := refNearest(ref, pt, 1+7*i)
						same(fmt.Sprintf("%s %v %d-NN %d", phase, tech, 1+7*i, i), got.NearestQuery(pt, 1+7*i), want)
					}
				}
				if phase == "fresh" {
					applyMix(t, got, newLiveSet(ds), churn)
					applyMix(t, ref, newLiveSet(ds), churn)
					same("after churn", got.Stats(), ref.Stats())
				}
			}
		})
	}
}

// TestNearestMatchesRefiningReference: NearestQuery leaves unrefined a
// candidate whose key is already farther than the k-th best distance when its
// turn comes. refNearest refines every candidate it fetches, so for all three
// organizations, k of 1, 10 and 100, freshly built and churned 30/40/30, the
// two must agree in IDs, distance bits, Candidates, CandidateBytes and Cost,
// and move the buffer and disk counters alike — and both the rule and the
// upper bound that keeps entries from the read must have fired.
func TestNearestMatchesRefiningReference(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 81})
	pts := ds.Points(12, 82)
	for i := 0; i < len(ds.Objects); i += len(ds.Objects) / 4 { // on a vertex: a zero distance
		pts = append(pts, ds.Objects[i].Geom.Segments()[0].A)
	}
	churn := ds.MixedWorkload(datagen.MixSpec{Ops: 400, InsertFrac: 0.3, UpdateFrac: 0.4, DeleteFrac: 0.3, HotspotFrac: 0.5, Seed: 83})
	for _, kind := range []string{"secondary", "primary", "cluster"} {
		t.Run(kind, func(t *testing.T) {
			got, ref := buildOrg(t, kind, ds, 24), buildOrg(t, kind, ds, 24)
			beyond, unread := 0, 0
			for _, phase := range []string{"fresh", "churned"} {
				for _, k := range []int{1, 10, 100} {
					for i, pt := range pts {
						label := fmt.Sprintf("%s %d-NN %d", phase, k, i)
						res := got.NearestQuery(pt, k)
						want, b, u := refNearest(ref, pt, k)
						beyond, unread = beyond+b, unread+u
						if !reflect.DeepEqual(res.IDs, want.IDs) || res.Candidates != want.Candidates ||
							res.CandidateBytes != want.CandidateBytes || res.Cost != want.Cost {
							t.Fatalf("%s:\n  NearestQuery %+v\n  reference    %+v", label, res, want)
						}
						for j := range want.Dists {
							if math.Float64bits(res.Dists[j]) != math.Float64bits(want.Dists[j]) {
								t.Fatalf("%s: distance %d is %v, reference %v", label, j, res.Dists[j], want.Dists[j])
							}
						}
						if gc, rc := countersOf(got.Env()), countersOf(ref.Env()); gc != rc {
							t.Fatalf("%s: counters diverge:\n  NearestQuery %+v\n  reference    %+v", label, gc, rc)
						}
					}
				}
				if phase == "fresh" {
					applyMix(t, got, newLiveSet(ds), churn)
					applyMix(t, ref, newLiveSet(ds), churn)
				}
			}
			if beyond == 0 {
				t.Fatal("no fetched candidate lay beyond the k-th bound: the skip was never exercised")
			}
			if unread == 0 {
				t.Fatal("the upper bound kept no entry from the read: it was never exercised")
			}
			t.Logf("%d fetched candidates beyond the k-th bound, %d entries beyond the upper bound left unread", beyond, unread)
		})
	}
}

// TestThresholdRegionAfterChurn: TechThreshold decides each unit from its
// data page's region, which the tree hands over from the parent entry instead
// of unioning the page's entries. After a MixedWorkload churn — splits,
// condensing, unit repacks on update — every threshold window must equal
// refWindow, which decides with the page's unioned MBR, in IDs, Candidates,
// CandidateBytes and Cost, under fixed-size and buddy units alike; windows of
// three sizes make both decisions occur.
func TestThresholdRegionAfterChurn(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 128, Seed: 71})
	churn := ds.MixedWorkload(datagen.MixSpec{Ops: 1500, InsertFrac: 0.3, UpdateFrac: 0.4, DeleteFrac: 0.3, HotspotFrac: 0.5, Seed: 72})
	ws := append(append(ds.Windows(0.0005, 20, 73), ds.Windows(0.005, 20, 74)...), ds.Windows(0.05, 10, 75)...)
	for _, kind := range []string{"cluster", "cluster-buddy"} {
		t.Run(kind, func(t *testing.T) {
			got, ref := buildOrgOn(t, kind, ds, 24, nil), buildOrgOn(t, kind, ds, 24, nil)
			applyMix(t, got, newLiveSet(ds), churn)
			applyMix(t, ref, newLiveSet(ds), churn)
			for i, w := range ws {
				res := got.WindowQuery(w, TechThreshold)
				want := refWindow(ref, w, TechThreshold, func(o *object.Object) bool { return o.Geom.IntersectsRect(w) })
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("window %d %v:\n  parent-entry region %+v\n  unioned MBR         %+v", i, w, res, want)
				}
			}
			c := ref.(*Cluster)
			complete, pageByPage := 0, 0
			for _, w := range ws {
				refLeaves(c.Tree(), c.Tree().Root(), w, func(n *rtree.Node, _ []rtree.Entry) {
					if n.Rect().OverlapDegree(w) < c.thresholdFor(c.unitFor(n.ID)) {
						pageByPage++
					} else {
						complete++
					}
				})
			}
			if complete == 0 || pageByPage == 0 {
				t.Fatalf("units read complete %d times and page by page %d times: want both", complete, pageByPage)
			}
		})
	}
}

// --- the immutability contract ---------------------------------------------

// handedOut remembers slices the read path handed out — R*-tree leaf
// payloads and object views — with their checksum at that moment.
type handedOut struct {
	mu     sync.Mutex
	slices [][]byte
	sums   []uint32
}

func (h *handedOut) add(b []byte) {
	h.mu.Lock()
	h.slices, h.sums = append(h.slices, b), append(h.sums, crc32.ChecksumIEEE(b))
	h.mu.Unlock()
}

// verify re-reads every remembered slice. It takes no store lock: a writer
// touching those bytes meanwhile is what the race detector is there to see.
func (h *handedOut) verify(t *testing.T, when string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.slices {
		if crc32.ChecksumIEEE(b) != h.sums[i] {
			t.Fatalf("%s: slice %d of %d (%d bytes) changed after it was handed out", when, i, len(h.slices), len(b))
		}
	}
}

// probe does what a window query does, but keeps every slice it is handed.
// The caller holds the environment's read lock (or is the only goroutine).
func probe(org Organization, w geom.Rect, tech Technique, h *handedOut) {
	org.Tree().SearchLeaves(w, nil, func(lm rtree.LeafMatch) bool {
		sc := new(scratch) // not pooled: the views must outlive the probe
		for _, e := range lm.Matched {
			h.add(e.Payload)
		}
		for _, view := range layoutOf(org).views(lm, w, tech, sc) {
			h.add(view)
		}
		return true
	})
}

// contractEnvs builds the environments the contract is held on: the memory
// backend under both replacement policies and the file backend, each behind
// a buffer small enough to evict constantly.
func contractEnvs(t *testing.T) map[string]func() *Env {
	return map[string]func() *Env{
		"mem":    func() *Env { return NewEnv(16) },
		"mem-2q": func() *Env { return NewEnvOn(16, buffer.Policy2Q, disk.DefaultParams(), nil) },
		"file": func() *Env {
			b, err := filebackend.Open(filepath.Join(t.TempDir(), "raw.db"))
			if err != nil {
				t.Fatal(err)
			}
			env := NewEnvOn(16, buffer.PolicyLRU, disk.DefaultParams(), b)
			t.Cleanup(func() { env.Close() })
			return env
		},
	}
}

func contractOrgs(ds *datagen.Dataset) map[string]func(*Env) Organization {
	return map[string]func(*Env) Organization{
		"cluster": func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		},
		"primary":   func(env *Env) Organization { return NewPrimary(env) }, // variable leaves
		"secondary": func(env *Env) Organization { return NewSecondary(env) },
	}
}

// TestHandedOutSlicesNeverChange holds the contract of internal/buffer: a
// randomized sequence of inserts, updates, deletes, repacks, rebuilds,
// flushes and buffer wipes — all behind a 16-page buffer — is interleaved
// with probes, and no slice a probe was handed may differ afterwards. Every
// environment sees the same sequence, so the run doubles as the differential
// between them: replacement policy and backend may move cost, never an
// answer.
func TestHandedOutSlicesNeverChange(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 41})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 500, InsertFrac: 0.3, UpdateFrac: 0.4, DeleteFrac: 0.3, HotspotFrac: 0.5, Seed: 42})
	ws := ds.Windows(0.01, 64, 43)
	techs := []Technique{TechComplete, TechSLM, TechSLMVector, TechPageByPage}
	final := map[string]map[string][][]object.ID{} // organization → environment → answers at the end
	for envName, newEnv := range contractEnvs(t) {
		for orgName, newOrg := range contractOrgs(ds) {
			t.Run(envName+"/"+orgName, func(t *testing.T) {
				rng := rand.New(rand.NewSource(44))
				org := newOrg(newEnv())
				for i, o := range ds.Objects { // unflushed: unit tails are still in memory
					org.Insert(o, ds.MBRs[i])
				}
				var h handedOut
				for todo := ops; len(todo) > 0; {
					switch step := rng.Intn(10); {
					case step < 5:
						n := min(len(todo), 1+rng.Intn(8))
						mutate(org, todo[:n])
						todo = todo[n:]
					case step < 8:
						probe(org, ws[rng.Intn(len(ws))], techs[rng.Intn(len(techs))], &h)
					case step == 8:
						org.Flush()
						if rng.Intn(2) == 0 {
							org.Env().Buf.Clear()
						}
					default:
						if c, ok := org.(*Cluster); ok {
							if frags := c.UnitFrags(); len(frags) > 0 && rng.Intn(4) > 0 {
								c.RepackUnit(frags[0].Leaf)
							} else {
								c.Rebuild(0)
							}
						}
					}
				}
				if len(h.slices) == 0 {
					t.Fatal("the probes were handed nothing")
				}
				h.verify(t, "at the end")
				if final[orgName] == nil {
					final[orgName] = map[string][][]object.ID{}
				}
				for _, w := range ws {
					ids := org.WindowQuery(w, TechSLM).IDs
					slices.Sort(ids)
					final[orgName][envName] = append(final[orgName][envName], ids)
				}
			})
		}
	}
	for orgName, byEnv := range final {
		for envName, answers := range byEnv {
			if !reflect.DeepEqual(answers, byEnv["mem"]) {
				t.Errorf("%s: answers on %s differ from mem (LRU) after the same sequence", orgName, envName)
			}
		}
	}
}

// mutate applies the mutations of a mixed workload without flushing.
func mutate(org Organization, ops []datagen.Op) {
	for _, op := range ops {
		switch op.Kind {
		case datagen.OpInsert:
			org.Insert(op.Obj, op.Key)
		case datagen.OpDelete:
			org.Delete(op.ID)
		case datagen.OpUpdate:
			org.Update(op.Obj, op.Key)
		}
	}
}

// TestHandedOutSlicesSurviveConcurrentMutation is the same contract under
// the race detector: a mutator works through the write lock while concurrent
// queries and a prober share the read lock; the prober keeps
// its slices and re-reads them with no lock held, so a write into a page that
// was handed out is a reported race as well as a checksum failure.
func TestHandedOutSlicesSurviveConcurrentMutation(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 256, Seed: 51})
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 300, InsertFrac: 0.3, UpdateFrac: 0.4, DeleteFrac: 0.3, HotspotFrac: 0.5, Seed: 52})
	ws := ds.Windows(0.005, 60, 53)
	pts := ds.Points(30, 54)
	for orgName, newOrg := range contractOrgs(ds) {
		t.Run(orgName, func(t *testing.T) {
			org := newOrg(NewEnv(48))
			for i, o := range ds.Objects {
				org.Insert(o, ds.MBRs[i])
			}
			org.Flush()
			var h handedOut
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // the mutator
				defer wg.Done()
				defer done.Store(true)
				for i, op := range ops {
					mutate(org, []datagen.Op{op})
					if c, ok := org.(*Cluster); ok && i%60 == 59 {
						if frags := c.UnitFrags(); len(frags) > 0 {
							c.RepackUnit(frags[0].Leaf)
						}
					}
					if i%100 == 99 {
						org.Flush()
					}
				}
			}()
			go func() { // the prober
				defer wg.Done()
				for i := 0; !done.Load() && !t.Failed(); i++ {
					org.Env().mu.RLock()
					probe(org, ws[i%len(ws)], TechSLM, &h)
					org.Env().mu.RUnlock()
					h.verify(t, "while the mutator runs")
				}
			}()
			for !done.Load() {
				inParallel(len(ws), 3, func(i int) { org.WindowQuery(ws[i], TechComplete) })
				inParallel(len(pts), 3, func(i int) { org.NearestQuery(pts[i], 5) })
			}
			wg.Wait()
			h.verify(t, "at the end")
		})
	}
}

// --- allocation ceilings -----------------------------------------------------

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// allocStore builds organization kind over ds — a cluster store with units of
// smax bytes — behind a buffer of bufPages, and faults in what fits: a buffer
// larger than the store holds all of it, a small one its last pages.
func allocStore(t *testing.T, ds *datagen.Dataset, kind string, smax, bufPages int) Organization {
	t.Helper()
	env := NewEnv(bufPages)
	var org Organization
	switch kind {
	case "cluster":
		org = NewCluster(env, ClusterConfig{SmaxBytes: smax})
	case "primary":
		org = NewPrimary(env)
	case "secondary":
		org = NewSecondary(env)
	}
	for i, o := range ds.Objects {
		if err := org.Insert(o, ds.MBRs[i]); err != nil {
			t.Fatal(err)
		}
	}
	org.Flush()
	org.WindowQuery(geom.R(0, 0, 1, 1), TechComplete)
	return org
}

// queryAllocs returns what a window read complete, a point and a 10-NN query
// allocate on average on org over the query lists, each query measured on
// its own after one unmeasured pass over the lists. On a cold store a scan
// of the whole space runs before each query, unmeasured: the buffer is full
// of other pages, not even the root is resident, and a query that met no
// miss fails the test.
func queryAllocs(t *testing.T, org Organization, ws []geom.Rect, pts []geom.Point, cold bool) (window, vector, point, knn float64) {
	t.Helper()
	measure := func(kind string, query func(i int) disk.Tally) float64 {
		for i := range ws {
			query(i)
		}
		var before, after runtime.MemStats
		var mallocs uint64
		for i := range ws {
			if cold {
				org.WindowQuery(geom.R(0, 0, 1, 1), TechComplete)
			}
			runtime.ReadMemStats(&before)
			tl := query(i)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if cold && tl.Misses == 0 {
				t.Errorf("%s %s query %d met no buffer miss on the cold store", org.Name(), kind, i)
			}
		}
		return float64(mallocs) / float64(len(ws))
	}
	return measure("window", func(i int) disk.Tally { return org.WindowQuery(ws[i], TechComplete).Tally }),
		measure("vector-read window", func(i int) disk.Tally { return org.WindowQuery(ws[i], TechSLMVector).Tally }),
		measure("point", func(i int) disk.Tally { return org.PointQuery(pts[i]).Tally }),
		measure("10-NN", func(i int) disk.Tally { return org.NearestQuery(pts[i], 10).Tally })
}

// TestQueryAllocs pins what a query allocates, on a warm buffer that holds the
// whole store and on a cold one that holds a twentieth of it, where every
// query misses. A cluster query allocates its answer and nothing else — no
// term per data page, per candidate, per entry scanned, per answer or per
// buffer miss: a window or point query its ID slice, allocated once at its
// final size, a 10-NN query its IDs and Dists. A window read with vector
// read, the served default, is held to the complete window's ceiling. The
// primary organization, whose objects here all lie inline in its data pages,
// allocates the same; an overflow object would add a per-candidate term.
// The secondary is held at the counts measured when its ceilings were set
// (window 121.55, point 2.12, 10-NN 86.32), a per-candidate term:
// pagefile.ReadDirect reads every candidate into a fresh page slice and
// copies one that straddles pages.
// Counts are averages over a list of windows, each with answers, and of
// points on those answers. They are taken with the collector off and on one
// P, as testing.AllocsPerRun takes them, so that a pooled scratch is never
// dropped or left behind on another P.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pools hand back what they were given
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 32, Seed: 61})
	const coldPages = 24
	smax := ds.Spec.SmaxBytes()
	dense := allocStore(t, ds, "cluster", smax, 1<<16)
	byID := make(map[object.ID]*object.Object, len(ds.Objects))
	for _, o := range ds.Objects {
		byID[o.ID] = o
	}
	// Windows of 1 % of the space with answers, and a point on a polyline
	// answer of each, so that the point query has an answer too.
	var ws []geom.Rect
	var pts []geom.Point
	candidates := 0
	for _, w := range ds.Windows(0.01, 60, 62) {
		res := dense.WindowQuery(w, TechComplete)
		for _, id := range res.IDs {
			if l, ok := byID[id].Geom.(*geom.Polyline); ok {
				ws, pts = append(ws, w), append(pts, l.Vertices[0])
				candidates += res.Candidates
				break
			}
		}
	}
	if len(ws) < 40 || candidates < 30*len(ws) {
		t.Fatalf("%d windows with answers, %d candidates: too few to show a per-candidate term", len(ws), candidates)
	}
	for i, pt := range pts {
		if len(dense.PointQuery(pt).IDs) == 0 {
			t.Fatalf("point %d has no answer", i)
		}
	}
	wide := geom.R(0, 0, 1, 1) // at least ten times the answers of any window
	for _, cold := range []bool{false, true} {
		arm, bufPages := "warm", 1<<16
		if cold {
			arm, bufPages = "cold", coldPages
		}
		for _, c := range []struct {
			kind               string
			window, point, knn float64 // ceilings
		}{{"cluster", 1, 1, 2}, {"primary", 1, 1, 2}, {"secondary", 121.6, 2.12, 86.32}} {
			org := allocStore(t, ds, c.kind, smax, bufPages)
			if occ := org.Stats().OccupiedPages; occ < 20*coldPages {
				t.Fatalf("%s store of %d pages is not 20 times its %d-page buffer", c.kind, occ, coldPages)
			}
			window, vector, point, knn := queryAllocs(t, org, ws, pts, cold)
			t.Logf("%s %s: window %v, vector-read window %v, point %v, 10-NN %v allocations", arm, c.kind, window, vector, point, knn)
			for _, q := range []struct {
				name       string
				got, limit float64
			}{{"window", window, c.window}, {"vector-read window", vector, c.window}, {"point", point, c.point}, {"10-NN", knn, c.knn}} {
				if q.got > q.limit {
					t.Errorf("%s %s: a %s query allocates %v times, ceiling %v", arm, c.kind, q.name, q.got, q.limit)
				}
			}
			if c.kind != "cluster" {
				continue
			}
			// The same windows over a quarter of the unit size: more pages
			// scanned, the same candidates and answers — and the same
			// count, since only the answer slice grows.
			sparse := allocStore(t, ds, "cluster", smax/4, bufPages)
			perPage := func(o Organization) float64 { return float64(len(ds.Objects)) / float64(o.Stats().LeafPages) }
			if perPage(dense) < 2*perPage(sparse) {
				t.Fatalf("dense store holds %.1f objects per data page, sparse %.1f: want twice as many", perPage(dense), perPage(sparse))
			}
			if sparseWindow, _, _, _ := queryAllocs(t, sparse, ws, pts, cold); sparseWindow != window {
				t.Errorf("%s: a window query allocates %v times at %.1f objects per data page and %v at %.1f: a per-page or per-entry term",
					arm, window, perPage(dense), sparseWindow, perPage(sparse))
			}
			// Both stores of this arm answer every window, the wide one too,
			// as the warm dense store does.
			for i, w := range append(ws[:len(ws):len(ws)], wide) {
				want := sortedIDs(dense.WindowQuery(w, TechComplete).IDs)
				for _, s := range []struct {
					name string
					org  Organization
				}{{"dense", org}, {"sparse", sparse}} {
					if got := sortedIDs(s.org.WindowQuery(w, TechComplete).IDs); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s store answers window %d with %d IDs, the warm dense store with %d", arm, s.name, i, len(got), len(want))
					}
				}
			}
			// The whole space, ten times the answers: still one allocation.
			if n := len(org.WindowQuery(wide, TechComplete).IDs); n < 10*len(dense.WindowQuery(ws[0], TechComplete).IDs) {
				t.Fatalf("the wide window answers only %d", n)
			}
			var tl disk.Tally
			if got := testing.AllocsPerRun(10, func() { tl = org.WindowQuery(wide, TechComplete).Tally }); got != window || cold && tl.Misses == 0 {
				t.Errorf("%s: a window of ten times the answers allocates %v times (%d misses), the others %v: a per-answer term",
					arm, got, tl.Misses, window)
			}
		}
	}
}

// TestReleasedScratchKeepsNoHugeAnswer: a scratch that collected a huge
// answer or k-NN accumulator goes back to the pool without it, and without a
// page in its page headers or its k-NN entries.
func TestReleasedScratchKeepsNoHugeAnswer(t *testing.T) {
	sc := getScratch()
	sc.answer = make([]object.ID, 0, 2*maxPooledAnswer)
	sc.knn = make([]knnCand, 0, 2*maxPooledAnswer)
	sc.hdrs = [][]byte{make([]byte, disk.PageSize)}[:0]
	sc.near = []nearEntry{{e: rtree.Entry{Payload: make([]byte, 16)}}}[:0]
	sc.release()
	if sc.answer != nil || sc.knn != nil {
		t.Fatalf("a released scratch keeps an answer slice of %d IDs and %d k-NN candidates", cap(sc.answer), cap(sc.knn))
	}
	if sc.hdrs[:1][0] != nil {
		t.Fatal("a released scratch keeps a page in its page headers")
	}
	if sc.near[:1][0].e.Payload != nil {
		t.Fatal("a released scratch keeps a page in its k-NN entries")
	}
}

// --- the containment rule ----------------------------------------------------

// TestWindowRefinementShortcut holds the window refinement — a candidate whose
// key lies inside the window is an answer undecoded, every other takes the
// segment test without its bounding-box rejection — to a brute-force scan of
// the data set with the exact predicate, and to refWindow, the same query
// with neither shortcut: IDs in order, Candidates, CandidateBytes and Cost
// equal. Polylines and polygons, keys equal to the MBR and enlarged fourfold,
// and the windows where containment and touching are decided by equality:
// zero-area ones, an object's own MBR and key, and neighbours sharing only an
// edge or a corner with them.
func TestWindowRefinementShortcut(t *testing.T) {
	techs := []Technique{TechComplete, TechThreshold, TechSLM, TechSLMVector, TechPageByPage}
	for _, m := range []datagen.MapID{datagen.Map1, datagen.Map2} {
		for _, scale := range []float64{1, 4} {
			ds := datagen.Generate(datagen.Spec{Map: m, Series: datagen.SeriesA, Scale: 256, Seed: 31, MBRScale: scale})
			ws := append(ds.Windows(0.0005, 4, 5), ds.Windows(0.05, 3, 6)...)
			for i := 0; i < len(ds.Objects); i += len(ds.Objects)/5 + 1 {
				b, k, v := ds.Objects[i].Bounds(), ds.MBRs[i], ds.Objects[i].Geom.Segments()[0].A
				ws = append(ws, b, k,
					geom.RectFromPoint(b.Center()), geom.RectFromPoint(v),
					geom.R(b.MaxX, b.MinY, b.MaxX+0.01, b.MaxY),      // shares an edge with the MBR
					geom.R(k.MaxX, k.MaxY, k.MaxX+0.01, k.MaxY+0.01), // and a corner with the key
					geom.R(v.X-0.01, v.Y-0.01, v.X, v.Y))             // and a corner with a vertex
			}
			decided := 0
			for _, kind := range []string{"secondary", "primary", "cluster"} {
				got, ref := buildOrg(t, kind, ds, 24), buildOrg(t, kind, ds, 24)
				for _, tech := range techs {
					for i, w := range ws {
						label := fmt.Sprintf("map %v, keys ×%v, %s, %v, window %d %v", m, scale, kind, tech, i, w)
						res := got.WindowQuery(w, tech)
						want := refWindow(ref, w, tech, func(o *object.Object) bool { return o.Geom.IntersectsRect(w) })
						if !reflect.DeepEqual(res, want) {
							t.Fatalf("%s:\n  with the shortcut %+v\n  without %+v", label, res, want)
						}
						sameIDs(t, label, res.IDs, bruteWindow(ds, w))
					}
				}
			}
			for i := range ds.Objects {
				for _, w := range ws {
					if w.ContainsRect(ds.MBRs[i]) {
						decided++
					}
				}
			}
			if decided == 0 {
				t.Fatalf("map %v, keys ×%v: no window contains a key, the rule was never exercised", m, scale)
			}
		}
	}
}

package store

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

// testDataset returns a small deterministic dataset.
func testDataset(scale int) *datagen.Dataset {
	return datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesA, Scale: scale, Seed: 42,
	})
}

// buildAll constructs all three organizations over the same dataset.
func buildAll(t *testing.T, ds *datagen.Dataset, bufPages int) map[string]Organization {
	t.Helper()
	orgs := map[string]Organization{
		"secondary": NewSecondary(NewEnv(bufPages)),
		"primary":   NewPrimary(NewEnv(bufPages)),
		"cluster":   NewCluster(NewEnv(bufPages), ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()}),
		"cluster-buddy": NewCluster(NewEnv(bufPages),
			ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3}),
	}
	for _, org := range orgs {
		for i, o := range ds.Objects {
			org.Insert(o, ds.MBRs[i])
		}
		org.Flush()
	}
	return orgs
}

// bruteWindow computes the reference answer of a window query.
func bruteWindow(ds *datagen.Dataset, w geom.Rect) map[object.ID]bool {
	out := map[object.ID]bool{}
	for i, o := range ds.Objects {
		if ds.MBRs[i].Intersects(w) && o.Geom.IntersectsRect(w) {
			out[o.ID] = true
		}
	}
	return out
}

// brutePoint computes the reference answer of a point query.
func brutePoint(ds *datagen.Dataset, p geom.Point) map[object.ID]bool {
	out := map[object.ID]bool{}
	for i, o := range ds.Objects {
		if ds.MBRs[i].ContainsPoint(p) && o.Geom.ContainsPoint(p) {
			out[o.ID] = true
		}
	}
	return out
}

func sameIDs(t *testing.T, label string, got []object.ID, want map[object.ID]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("%s: unexpected result %d", label, id)
		}
	}
}

func TestAllOrganizationsAgreeOnWindowQueries(t *testing.T) {
	ds := testDataset(256) // ~513 objects
	orgs := buildAll(t, ds, 512)
	ws := ds.Windows(0.001, 20, 7)
	ws = append(ws, ds.Windows(0.01, 10, 8)...)
	for name, org := range orgs {
		techs := []Technique{TechComplete}
		if _, isCluster := org.(*Cluster); isCluster {
			techs = []Technique{TechComplete, TechThreshold, TechSLM, TechPageByPage}
		}
		for _, tech := range techs {
			for qi, w := range ws {
				org.Env().Buf.Clear()
				res := org.WindowQuery(w, tech)
				want := bruteWindow(ds, w)
				sameIDs(t, name+"/"+tech.String(), res.IDs, want)
				if res.Candidates < len(want) {
					t.Fatalf("%s: candidates %d < answers %d (query %d)",
						name, res.Candidates, len(want), qi)
				}
			}
		}
	}
}

func TestAllOrganizationsAgreeOnPointQueries(t *testing.T) {
	ds := testDataset(256)
	orgs := buildAll(t, ds, 512)
	pts := ds.Points(50, 9)
	for name, org := range orgs {
		for _, p := range pts {
			org.Env().Buf.Clear()
			res := org.PointQuery(p)
			sameIDs(t, name, res.IDs, brutePoint(ds, p))
		}
	}
}

func TestQueriesChargeIO(t *testing.T) {
	ds := testDataset(256)
	orgs := buildAll(t, ds, 64)
	w := datagen.DataSpace() // everything qualifies
	for name, org := range orgs {
		org.Env().Buf.Clear()
		org.Env().Disk.ResetCost()
		res := org.WindowQuery(w, TechComplete)
		if res.Cost.PagesRead == 0 {
			t.Fatalf("%s: full-space window query read no pages", name)
		}
		if res.Cost != org.Env().Disk.Cost() {
			t.Fatalf("%s: result cost %v != disk cost %v", name, res.Cost, org.Env().Disk.Cost())
		}
		if len(res.IDs) != len(ds.Objects) {
			t.Fatalf("%s: full-space query returned %d of %d", name, len(res.IDs), len(ds.Objects))
		}
	}
}

func TestClusterUnitInvariants(t *testing.T) {
	ds := testDataset(128) // ~1027 objects, forces cluster splits
	for _, buddySizes := range []int{0, 3} {
		env := NewEnv(1024)
		c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: buddySizes})
		for i, o := range ds.Objects {
			c.Insert(o, ds.MBRs[i])
		}
		c.Flush()

		smax := ds.Spec.SmaxBytes()
		leaves := map[disk.PageID]bool{}
		objects := 0
		c.Tree().WalkNodes(func(n *rtree.Node) bool {
			if !n.IsLeaf() {
				return true
			}
			leaves[n.ID] = true
			u := c.units[n.ID]
			if u == nil {
				t.Fatalf("leaf %d has no cluster unit", n.ID)
			}
			if u.used > smax {
				// Transient overshoot is split away immediately; after
				// construction no unit may exceed Smax.
				t.Fatalf("unit of leaf %d holds %d bytes > Smax %d", n.ID, u.used, smax)
			}
			if len(u.objects) != len(n.Entries) {
				t.Fatalf("leaf %d: %d entries but %d unit objects", n.ID, len(n.Entries), len(u.objects))
			}
			// Entry set and unit set must agree.
			for _, e := range n.Entries {
				id, size := decodePayload(e.Payload)
				pos, ok := u.index[id]
				if !ok {
					t.Fatalf("leaf %d: entry %d missing from unit", n.ID, id)
				}
				if u.objects[pos].size != size {
					t.Fatalf("object %d: entry size %d, unit size %d", id, size, u.objects[pos].size)
				}
				objects++
			}
			// Object extents within the unit must not overlap.
			sorted := append([]unitObject(nil), u.objects...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
			for i := 1; i < len(sorted); i++ {
				if sorted[i-1].off+sorted[i-1].size > sorted[i].off {
					t.Fatalf("leaf %d: overlapping objects in unit", n.ID)
				}
			}
			return true
		})
		if objects != len(ds.Objects) {
			t.Fatalf("units hold %d objects, want %d", objects, len(ds.Objects))
		}
		if len(leaves) != c.NumUnits() {
			t.Fatalf("%d leaves but %d units", len(leaves), c.NumUnits())
		}
		// homes agree with leaves.
		for id, leaf := range c.homes {
			if !leaves[leaf] {
				t.Fatalf("object %d homed at non-leaf %d", id, leaf)
			}
		}
	}
}

func TestClusterObjectsReadBackCorrectly(t *testing.T) {
	ds := testDataset(128)
	env := NewEnv(256)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	env.Buf.Clear()

	// Fetch every object through its unit and compare the geometry bytes.
	m := buffer.New(env.Disk, 4096)
	for i, o := range ds.Objects {
		leaf := c.homes[o.ID]
		got := c.PrepareFetch(leaf, []object.ID{o.ID}, m, TechSLM)()
		if len(got) != 1 || got[0].ID != o.ID {
			t.Fatalf("fetch of %d returned %v", o.ID, got)
		}
		if got[0].Bounds() != o.Bounds() || got[0].Size() != o.Size() {
			t.Fatalf("object %d corrupted through cluster storage", o.ID)
		}
		_ = i
	}
}

func TestClusterCompleteReadsUnitInOneRequest(t *testing.T) {
	ds := testDataset(256)
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	env.Buf.Clear()
	env.Disk.ResetCost()

	// Pick one leaf and fetch one object with TechComplete: the whole unit
	// must arrive with a single read request.
	var leaf disk.PageID
	var anyID object.ID
	for id, l := range c.homes {
		leaf, anyID = l, id
		break
	}
	u := c.unitFor(leaf)
	m := buffer.New(env.Disk, 1024)
	before := env.Disk.Cost()
	c.PrepareFetch(leaf, []object.ID{anyID}, m, TechComplete)()
	diff := env.Disk.Cost().Sub(before)
	if diff.ReadRequests != 1 {
		t.Fatalf("complete fetch used %d read requests, want 1", diff.ReadRequests)
	}
	if diff.PagesRead != int64(u.usedPages()) {
		t.Fatalf("complete fetch read %d pages, unit has %d", diff.PagesRead, u.usedPages())
	}
	if diff.Seeks != 1 || diff.Rotations != 1 {
		t.Fatalf("complete fetch cost %+v", diff)
	}
}

func TestClusterPointQueryCheaperThanComplete(t *testing.T) {
	ds := testDataset(128)
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()

	pts := ds.Points(30, 3)
	var pointCost, completeCost float64
	p := env.Params()
	for _, pt := range pts {
		env.Buf.Clear()
		res := c.PointQuery(pt)
		pointCost += res.Cost.TimeMS(p)
		env.Buf.Clear()
		res = c.WindowQuery(geom.RectFromPoint(pt), TechComplete)
		completeCost += res.Cost.TimeMS(p)
	}
	if pointCost > completeCost {
		t.Fatalf("point queries (%.1f ms) dearer than complete-unit reads (%.1f ms)",
			pointCost, completeCost)
	}
}

func TestThresholdBetweenPageByPageAndComplete(t *testing.T) {
	ds := testDataset(128)
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	p := env.Params()

	total := map[Technique]float64{}
	for _, area := range []float64{0.00001, 0.01} {
		for _, w := range ds.Windows(area, 30, 5) {
			for _, tech := range []Technique{TechComplete, TechThreshold, TechPageByPage, TechSLM} {
				env.Buf.Clear()
				res := c.WindowQuery(w, tech)
				total[tech] += res.Cost.TimeMS(p)
			}
		}
	}
	// The threshold technique picks per unit between the two extremes, so
	// its total must not exceed the worse of the two by more than noise.
	worst := total[TechComplete]
	if total[TechPageByPage] > worst {
		worst = total[TechPageByPage]
	}
	if total[TechThreshold] > worst*1.05 {
		t.Fatalf("threshold %.1f ms worse than both extremes (complete %.1f, page %.1f)",
			total[TechThreshold], total[TechComplete], total[TechPageByPage])
	}
	// SLM never transfers more pages than complete and never uses more
	// requests than page-by-page; with the paper's parameters its total
	// time should not exceed either extreme materially.
	if total[TechSLM] > worst*1.05 {
		t.Fatalf("SLM %.1f ms worse than both extremes", total[TechSLM])
	}
}

func TestWindowQueryOptimumIsLowerBound(t *testing.T) {
	ds := testDataset(128)
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	p := env.Params()
	for _, w := range ds.Windows(0.001, 20, 6) {
		env.Buf.Clear()
		opt, _ := c.WindowQueryOptimum(w)
		for _, tech := range []Technique{TechComplete, TechSLM, TechPageByPage, TechThreshold} {
			env.Buf.Clear()
			res := c.WindowQuery(w, tech)
			if got := res.Cost.TimeMS(p); got < opt-1e-6 {
				t.Fatalf("%v cost %.3f ms below optimum %.3f ms", tech, got, opt)
			}
		}
	}
}

func TestStorageStats(t *testing.T) {
	ds := testDataset(128)
	orgs := buildAll(t, ds, 1024)
	for name, org := range orgs {
		st := org.Stats()
		if st.Objects != len(ds.Objects) {
			t.Fatalf("%s: stats objects %d, want %d", name, st.Objects, len(ds.Objects))
		}
		if st.ObjectBytes != ds.TotalBytes() {
			t.Fatalf("%s: stats bytes %d, want %d", name, st.ObjectBytes, ds.TotalBytes())
		}
		if st.OccupiedPages != st.DirPages+st.LeafPages+st.ObjectPages {
			t.Fatalf("%s: inconsistent page totals %+v", name, st)
		}
		if st.OccupiedPages <= 0 {
			t.Fatalf("%s: no occupied pages", name)
		}
	}
	// Paper Figure 6: secondary has the best storage utilization; the
	// fixed-Smax cluster organization the worst. Figure 7: the restricted
	// buddy system brings the cluster organization close to the primary.
	sec := orgs["secondary"].Stats().OccupiedPages
	prim := orgs["primary"].Stats().OccupiedPages
	clus := orgs["cluster"].Stats().OccupiedPages
	buddy := orgs["cluster-buddy"].Stats().OccupiedPages
	if !(sec < prim && prim < clus) {
		t.Fatalf("utilization order wrong: sec=%d prim=%d cluster=%d", sec, prim, clus)
	}
	if !(buddy < clus) {
		t.Fatalf("buddy system did not improve utilization: %d vs %d", buddy, clus)
	}
	if float64(buddy) > 1.6*float64(prim) {
		t.Fatalf("restricted buddy (%d pages) should be near primary (%d pages)", buddy, prim)
	}
}

func TestPrimaryOverflowObjects(t *testing.T) {
	// Series C has a noticeable share of objects >1 page, which the
	// primary organization must push to the overflow file.
	ds := datagen.Generate(datagen.Spec{
		Map: datagen.Map1, Series: datagen.SeriesC, Scale: 256, Seed: 1,
	})
	env := NewEnv(1024)
	p := NewPrimary(env)
	for i, o := range ds.Objects {
		p.Insert(o, ds.MBRs[i])
	}
	p.Flush()
	if len(p.refs) == 0 {
		t.Fatal("series C produced no overflow objects")
	}
	if p.Stats().ObjectPages == 0 {
		t.Fatal("overflow file unused")
	}
	// Queries still agree with brute force.
	for _, w := range ds.Windows(0.01, 10, 2) {
		env.Buf.Clear()
		res := p.WindowQuery(w, TechComplete)
		sameIDs(t, "primary-C", res.IDs, bruteWindow(ds, w))
	}
}

func TestPrepareFetchAcrossOrganizations(t *testing.T) {
	ds := testDataset(256)
	orgs := buildAll(t, ds, 512)
	// Pick candidate leaf/object pairs via the tree.
	for name, org := range orgs {
		org.Env().Buf.Clear()
		m := buffer.New(org.Env().Disk, 512)
		fetched := 0
		org.Tree().WalkNodes(func(n *rtree.Node) bool {
			if !n.IsLeaf() || fetched >= 50 {
				return fetched < 50
			}
			var ids []object.ID
			for _, e := range n.Entries {
				var id object.ID
				if _, isPrim := org.(*Primary); isPrim {
					id, _ = decodePayload(e.Payload[1:])
				} else {
					id, _ = decodePayload(e.Payload)
				}
				ids = append(ids, id)
				if len(ids) == 3 {
					break
				}
			}
			got := org.PrepareFetch(n.ID, ids, m, TechComplete)()
			if len(got) != len(ids) {
				t.Fatalf("%s: fetched %d of %d", name, len(got), len(ids))
			}
			for i, o := range got {
				if o.ID != ids[i] {
					t.Fatalf("%s: fetched %d, want %d", name, o.ID, ids[i])
				}
			}
			fetched += len(ids)
			return true
		})
		if fetched == 0 {
			t.Fatalf("%s: no fetches exercised", name)
		}
	}
}

func TestInsertUnsortedIsDeterministic(t *testing.T) {
	ds := testDataset(512)
	build := func() disk.Cost {
		env := NewEnv(256)
		c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
		for i, o := range ds.Objects {
			c.Insert(o, ds.MBRs[i])
		}
		c.Flush()
		return env.Disk.Cost()
	}
	if build() != build() {
		t.Fatal("construction cost not deterministic")
	}
}

// refusedUnchanged inserts o, which org must refuse with want, and checks the
// refusal left the store as it was: same Stats, same answers to a probe.
func refusedUnchanged(t *testing.T, name string, org Organization, o *object.Object, want error) {
	t.Helper()
	probe := geom.R(0, 0, 1, 1)
	stats, answers := org.Stats(), len(org.WindowQuery(probe, TechComplete).IDs)
	if err := org.Insert(o, o.Bounds()); !errors.Is(err, want) {
		t.Errorf("%s: Insert = %v, want %v", name, err, want)
	}
	if got := org.Stats(); got != stats {
		t.Errorf("%s: a refused insert changed Stats: %+v, was %+v", name, got, stats)
	}
	if got := len(org.WindowQuery(probe, TechComplete).IDs); got != answers {
		t.Errorf("%s: a refused insert changed the probe answer: %d objects, was %d", name, got, answers)
	}
}

func TestDuplicateInsertRefused(t *testing.T) {
	ds := testDataset(1024)
	o := ds.Objects[0]
	for name, org := range map[string]Organization{
		"secondary": NewSecondary(NewEnv(64)),
		"primary":   NewPrimary(NewEnv(64)),
		"cluster":   NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: 81920}),
	} {
		if err := org.Insert(o, o.Bounds()); err != nil {
			t.Fatalf("%s: first insert: %v", name, err)
		}
		refusedUnchanged(t, name, org, o, ErrDuplicateID)
	}
}

func TestClusterRejectsOversizeObject(t *testing.T) {
	c := NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: 2 * disk.PageSize})
	huge := object.New(1, geom.NewPolyline([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}), 3*disk.PageSize)
	refusedUnchanged(t, "cluster", c, huge, ErrObjectTooLarge)

	// An update to that size panics before the old version goes.
	small := object.New(1, huge.Geom, 100)
	if err := c.Insert(small, small.Bounds()); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrObjectTooLarge) {
				t.Errorf("Update to an oversize object panics with %v, want %v", err, ErrObjectTooLarge)
			}
		}()
		c.Update(huge, huge.Bounds())
	}()
	if got := c.Stats(); got != stats {
		t.Errorf("a refused update changed Stats: %+v, was %+v", got, stats)
	}
	if ids := c.PointQuery(geom.Pt(0.5, 0.5)).IDs; len(ids) != 1 || ids[0] != 1 {
		t.Errorf("after a refused update the point query answers %v, want [1]", ids)
	}
}

func TestTechniqueString(t *testing.T) {
	want := map[Technique]string{
		TechComplete: "complete", TechThreshold: "threshold", TechSLM: "SLM",
		TechSLMVector: "vector read", TechPageByPage: "page-by-page",
	}
	for tech, s := range want {
		if tech.String() != s {
			t.Errorf("%d: %q", int(tech), tech.String())
		}
	}
	if Technique(99).String() == "" {
		t.Error("unknown technique must stringify")
	}
}

var _ = rand.Int // keep math/rand imported if unused by edits

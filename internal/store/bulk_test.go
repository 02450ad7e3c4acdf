package store

import (
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

func bulkLoaded(t *testing.T, ds *datagen.Dataset, fill float64) (*Cluster, *Env) {
	t.Helper()
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	c.BulkLoadHilbert(ds.Objects, ds.MBRs, fill)
	env.Buf.Clear()
	return c, env
}

func TestBulkLoadQueriesAgreeWithDynamic(t *testing.T) {
	ds := testDataset(128)
	bulk, benv := bulkLoaded(t, ds, 0.9)

	if n, err := bulk.Tree().CheckInvariants(); err != nil || n != len(ds.Objects) {
		t.Fatalf("bulk tree invariants: n=%d err=%v", n, err)
	}
	for _, w := range append(ds.Windows(0.001, 15, 4), ds.Windows(0.01, 10, 5)...) {
		benv.Buf.Clear()
		res := bulk.WindowQuery(w, TechComplete)
		sameIDs(t, "bulk", res.IDs, bruteWindow(ds, w))
	}
	for _, p := range ds.Points(30, 6) {
		benv.Buf.Clear()
		res := bulk.PointQuery(p)
		sameIDs(t, "bulk-point", res.IDs, brutePoint(ds, p))
	}
}

func TestBulkLoadUnitInvariants(t *testing.T) {
	ds := testDataset(128)
	c, _ := bulkLoaded(t, ds, 0.9)
	smax := ds.Spec.SmaxBytes()
	objects := 0
	c.Tree().WalkNodes(func(n *rtree.Node) bool {
		if !n.IsLeaf() {
			return true
		}
		u := c.units[n.ID]
		if u == nil {
			t.Fatalf("leaf %d without unit", n.ID)
		}
		if u.used > smax {
			t.Fatalf("unit of %d bytes exceeds Smax", u.used)
		}
		if len(u.objects) != len(n.Entries) {
			t.Fatalf("leaf %d: %d entries, %d unit objects", n.ID, len(n.Entries), len(u.objects))
		}
		objects += len(n.Entries)
		return true
	})
	if objects != len(ds.Objects) {
		t.Fatalf("units hold %d of %d objects", objects, len(ds.Objects))
	}
}

func TestBulkLoadConstructionFarCheaperThanDynamic(t *testing.T) {
	ds := testDataset(64) // ~2054 objects
	p := geom.R(0, 0, 1, 1)
	_ = p

	dynEnv := NewEnv(50)
	dyn := NewCluster(dynEnv, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	dynEnv.Disk.ResetCost()
	for i, o := range ds.Objects {
		dyn.Insert(o, ds.MBRs[i])
	}
	dyn.Flush()
	dynEnv.Buf.Clear()
	dynCost := dynEnv.Disk.Cost().TimeMS(dynEnv.Params())

	bulkEnv := NewEnv(50)
	bulk := NewCluster(bulkEnv, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	bulkEnv.Disk.ResetCost()
	bulk.BulkLoadHilbert(ds.Objects, ds.MBRs, 0.9)
	bulkEnv.Buf.Clear()
	bulkCost := bulkEnv.Disk.Cost().TimeMS(bulkEnv.Params())

	// The bulk load writes units sequentially and never splits; it runs
	// several times cheaper than dynamic insertion (4.4x at this scale,
	// growing with data size). Its cost is within ~60% of the raw
	// transfer floor (one write per object page).
	if bulkCost*3 > dynCost {
		t.Fatalf("bulk load %.0f ms not dramatically cheaper than dynamic %.0f ms", bulkCost, dynCost)
	}

	// And the packed store must still win big windows like the dynamic one.
	ws := ds.Windows(0.01, 20, 7)
	var dynMS, bulkMS float64
	for _, w := range ws {
		dynEnv.Buf.Clear()
		dynMS += dyn.WindowQuery(w, TechComplete).Cost.TimeMS(dynEnv.Params())
		bulkEnv.Buf.Clear()
		bulkMS += bulk.WindowQuery(w, TechComplete).Cost.TimeMS(bulkEnv.Params())
	}
	if bulkMS > dynMS*1.3 {
		t.Fatalf("packed store queries (%.0f ms) much worse than dynamic (%.0f ms)", bulkMS, dynMS)
	}
}

func TestBulkLoadStorageUtilization(t *testing.T) {
	ds := testDataset(128)
	dynamic := buildAll(t, ds, 512)["cluster"]
	packed, _ := bulkLoaded(t, ds, 0.9)
	if packed.Stats().OccupiedPages > dynamic.Stats().OccupiedPages {
		t.Fatalf("Hilbert packing (%d pages) must not waste more than dynamic (%d pages)",
			packed.Stats().OccupiedPages, dynamic.Stats().OccupiedPages)
	}
}

func TestBulkLoadEdgeCases(t *testing.T) {
	ds := testDataset(128)
	env := NewEnv(64)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	c.BulkLoadHilbert(nil, nil, 0.9) // empty load is a no-op
	if c.NumUnits() != 0 {
		t.Fatal("empty bulk load created units")
	}
	// Single object.
	c.BulkLoadHilbert(ds.Objects[:1], ds.MBRs[:1], 0)
	res := c.WindowQuery(ds.MBRs[0], TechComplete)
	if len(res.IDs) != 1 {
		t.Fatalf("single-object bulk store answered %d", len(res.IDs))
	}
	// Loading a non-empty store panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		c.BulkLoadHilbert(ds.Objects[1:2], ds.MBRs[1:2], 0)
	}()
	// Mismatched lengths panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: 81920}).
			BulkLoadHilbert(ds.Objects[:2], ds.MBRs[:1], 0)
	}()
}

func TestBulkLoadJoinCompatible(t *testing.T) {
	// Bulk-loaded stores must work as join inputs (PrepareFetch path).
	ds := testDataset(256)
	c, env := bulkLoaded(t, ds, 0.9)
	var fetched int
	c.Tree().WalkNodes(func(n *rtree.Node) bool {
		if !n.IsLeaf() || fetched > 20 {
			return fetched <= 20
		}
		id, _ := decodePayload(n.Entries[0].Payload)
		objs := c.PrepareFetch(n.ID, []object.ID{id}, env.Buf, TechSLM)()
		if len(objs) != 1 || objs[0].ID != id {
			t.Fatalf("fetch %d failed", id)
		}
		fetched++
		return true
	})
	if fetched == 0 {
		t.Fatal("no fetches")
	}
}

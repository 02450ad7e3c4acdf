package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
)

// TestSameTreeGolden pins what dynamic insertion builds, byte for byte: each
// organization is built from a seeded data set by Insert, churned by a seeded
// insert/update/delete stream and flushed, and then the FNV-64a of every tree
// page, of every other page (cluster units, the object file, overflow
// pages), each zero-padded to PageSize, the Stats() line and the disk.Cost
// line must equal the values the quadratic ChooseSubtree and split produced
// before insertion took its bounded form. A changed tie-break anywhere in
// insertion, split, forced reinsert or condense moves a page and fails here,
// long before a figure drifts.
func TestSameTreeGolden(t *testing.T) {
	ds := testDataset(16)
	var churn []datagen.Op
	for _, op := range ds.MixedWorkload(datagen.MixSpec{Ops: 900, HotspotFrac: 0.5, Seed: 25}) {
		if op.Kind != datagen.OpWindow {
			churn = append(churn, op)
		}
	}
	for _, c := range []struct {
		name              string
		build             func(*Env) Organization
		treeSum, otherSum uint64
		stats, cost       string
	}{
		{"cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		}, 0xd7d9cf310c6683d2, 0x99e1233978649724,
			"{DirPages:3 LeafPages:138 ObjectPages:1955 OccupiedPages:2096 Objects:8112 ObjectBytes:5062719 LiveBytes:5062719 DeadBytes:305543 Units:138 ExtentUtil:0.5897019946848163}",
			"seeks=1223 rot=1223 read=3961 written=4376 reqs=355/868"},
		{"primary", func(env *Env) Organization { return NewPrimary(env) }, 0x50e7e8a761bc023d, 0x467af99425147bb2,
			"{DirPages:33 LeafPages:2064 ObjectPages:2 OccupiedPages:2099 Objects:8112 ObjectBytes:5062719 LiveBytes:5062719 DeadBytes:0 Units:0 ExtentUtil:0.5888591619149}",
			"seeks=11405 rot=11405 read=6424 written=9468 reqs=6424/4986"},
		{"secondary", func(env *Env) Organization { return NewSecondary(env) }, 0xe1d7d92e4887aeb2, 0x9d83bc318f05977a,
			"{DirPages:3 LeafPages:132 ObjectPages:1312 OccupiedPages:1447 Objects:8112 ObjectBytes:5062719 LiveBytes:5062719 DeadBytes:308875 Units:0 ExtentUtil:0.8541916937521596}",
			"seeks=5 rot=5 read=0 written=1447 reqs=0/1315"},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv(256)
			org := c.build(env)
			for i, o := range ds.Objects {
				if err := org.Insert(o, ds.MBRs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range churn {
				switch op.Kind {
				case datagen.OpInsert:
					if err := org.Insert(op.Obj, op.Key); err != nil {
						t.Fatal(err)
					}
				case datagen.OpUpdate:
					if !org.Update(op.Obj, op.Key) {
						t.Fatalf("update of live object %d failed", op.Obj.ID)
					}
				case datagen.OpDelete:
					if !org.Delete(op.ID) {
						t.Fatalf("delete of live object %d failed", op.ID)
					}
				}
			}
			org.Flush()
			cost := fmt.Sprintf("%+v", env.Disk.Cost())
			stats := fmt.Sprintf("%+v", org.Stats())
			tree, other := fnv.New64a(), fnv.New64a()
			var id [8]byte
			for _, pg := range dumpPages(env.Disk) {
				h := other
				if org.Tree().IsNodePage(disk.PageID(pg.ID)) {
					h = tree
				}
				binary.LittleEndian.PutUint64(id[:], uint64(pg.ID))
				h.Write(id[:])
				h.Write(pg.Data)
				h.Write(make([]byte, disk.PageSize-len(pg.Data))) // a node is stored at its used length
			}
			t.Logf("height %d, %d leaf and %d directory pages", org.Tree().Height(), org.Tree().LeafPages(), org.Tree().DirPages())
			if got := tree.Sum64(); got != c.treeSum {
				t.Errorf("tree pages: FNV-64a %#x, want %#x", got, c.treeSum)
			}
			if got := other.Sum64(); got != c.otherSum {
				t.Errorf("object pages: FNV-64a %#x, want %#x", got, c.otherSum)
			}
			if stats != c.stats {
				t.Errorf("Stats() = %s, want %s", stats, c.stats)
			}
			if cost != c.cost {
				t.Errorf("disk.Cost = %s, want %s", cost, c.cost)
			}
		})
	}
}

// TestReadPathGolden is the query-side twin of TestSameTreeGolden: each
// organization is built from a seeded data set, churned and flushed, and then
// answers small and large windows under all five techniques, point queries
// and 1-NN and 10-NN queries, one after another on one buffer, so every query
// starts from the buffer state the previous one left. The FNV-64a of every
// answer ID list, Candidates, CandidateBytes, disk.Cost and k-NN distance
// (its bits) must equal what the read path produced at the commit before the
// organizations shared one query engine. A query that reads a page in another
// order, or one more or one fewer, moves the cost or the next query's hits and
// fails here. A second FNV-64a over the buffer's hits, misses and evictions
// after every query (pinned at the commit before the read path stopped
// assembling key-decided window candidates) fails a change that drops or adds
// a buffer touch, even one that moves no disk cost. Each query's own tally
// must equal the global counter deltas around it, bit for bit.
func TestReadPathGolden(t *testing.T) {
	ds := testDataset(16)
	var churn []datagen.Op
	for _, op := range ds.MixedWorkload(datagen.MixSpec{Ops: 600, HotspotFrac: 0.5, Seed: 28}) {
		if op.Kind != datagen.OpWindow {
			churn = append(churn, op)
		}
	}
	ws := append(ds.Windows(0.0005, 12, 281), ds.Windows(0.01, 6, 282)...)
	pts := ds.Points(6, 283)
	for i := 0; i < len(ds.Objects); i += len(ds.Objects) / 6 { // points on a vertex answer
		pts = append(pts, ds.Objects[i].Geom.Segments()[0].A)
	}
	techs := []Technique{TechComplete, TechThreshold, TechSLM, TechSLMVector, TechPageByPage}
	for _, c := range []struct {
		name        string
		build       func(*Env) Organization
		sum, bufSum uint64
	}{
		{"secondary", func(env *Env) Organization { return NewSecondary(env) }, 0xcb16a34cf5dbec83, 0x971113367988f846},
		{"primary", func(env *Env) Organization { return NewPrimary(env) }, 0x93c5671572c934ef, 0x2f9f493f3e711093},
		{"cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
		}, 0xdabd0a8b55cd2c0d, 0x685fed73931aa9c1},
		{"buddy-cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		}, 0xdabd0a8b55cd2c0d, 0x685fed73931aa9c1},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv(256)
			org := c.build(env)
			for i, o := range ds.Objects {
				if err := org.Insert(o, ds.MBRs[i]); err != nil {
					t.Fatal(err)
				}
			}
			mutate(org, churn)
			org.Flush()
			env.Buf.ResetStats()
			h, hb := fnv.New64a(), fnv.New64a()
			prev := countersOf(env)
			put := func(res QueryResult) {
				fmt.Fprintf(h, "%v %d %d %+v\n", res.IDs, res.Candidates, res.CandidateBytes, res.Cost)
				st := env.Buf.Stats()
				fmt.Fprintf(hb, "%d %d %d\n", st.Hits, st.Misses, st.Evictions)
				now := countersOf(env)
				if want := now.since(prev); res.Tally != want {
					t.Fatalf("a query tallied %+v, the global counters moved %+v", res.Tally, want)
				}
				prev = now
			}
			for _, tech := range techs {
				for _, w := range ws {
					put(org.WindowQuery(w, tech))
				}
			}
			var bits [8]byte
			for _, pt := range pts {
				put(org.PointQuery(pt))
				for _, k := range []int{1, 10} {
					res := org.NearestQuery(pt, k)
					put(res.QueryResult)
					for _, d := range res.Dists {
						binary.LittleEndian.PutUint64(bits[:], math.Float64bits(d))
						h.Write(bits[:])
					}
				}
			}
			if got := h.Sum64(); got != c.sum {
				t.Errorf("read path: FNV-64a %#x, want %#x", got, c.sum)
			}
			if got := hb.Sum64(); got != c.bufSum {
				t.Errorf("buffer stats: FNV-64a %#x, want %#x", got, c.bufSum)
			}
		})
	}
}

package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
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
// starts from the buffer state the previous one left. A query that reads a
// page in another order, or one more or one fewer, moves its cost or the next
// query's hits and fails here. Each query's own tally must equal the global
// counter deltas around it, bit for bit. Four FNV-64a sums are pinned:
//
//   - win: every window's answer IDs, Candidates, CandidateBytes and
//     disk.Cost, and the buffer's hits, misses and evictions after it. The
//     windows run first, so no change to the point or k-NN path moves it.
//   - answers: the point queries' IDs and the k-NN queries' IDs and distance
//     bits. No read plan may move it.
//   - cost: the point and k-NN queries' Candidates, CandidateBytes and
//     disk.Cost, which move with the k-NN read plan and the buffer it leaves.
//   - buf: the buffer's hits, misses and evictions after each of those.
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
	type sums struct{ win, answers, cost, buf uint64 }
	const answers = 0xc46f1d136c9087d5 // every organization answers alike
	for _, c := range []struct {
		name  string
		build func(*Env) Organization
		want  sums
	}{
		{"secondary", func(env *Env) Organization { return NewSecondary(env) }, sums{0x6e526b788d8288ac, answers, 0x74d9dc9042765758, 0x8423fbf5bd2e610}},
		{"primary", func(env *Env) Organization { return NewPrimary(env) }, sums{0x3be4c363a66db7a8, answers, 0x1273b1d0ac92b4d3, 0xb70bac855ddbc7a4}},
		{"cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
		}, sums{0xd87a49969f0afee1, answers, 0x6bde86e2cd20fc70, 0x4baf9e74bd2833a9}},
		{"buddy-cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		}, sums{0xd87a49969f0afee1, answers, 0x6bde86e2cd20fc70, 0x4baf9e74bd2833a9}},
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
			hw, ha, hc, hb := fnv.New64a(), fnv.New64a(), fnv.New64a(), fnv.New64a()
			prev := countersOf(env)
			// put hashes a query's cost into cost and the buffer's counters
			// after it into buf, and checks its tally.
			put := func(res QueryResult, cost, buf io.Writer) {
				fmt.Fprintf(cost, "%d %d %+v\n", res.Candidates, res.CandidateBytes, res.Cost)
				st := env.Buf.Stats()
				fmt.Fprintf(buf, "%d %d %d\n", st.Hits, st.Misses, st.Evictions)
				now := countersOf(env)
				if want := now.since(prev); res.Tally != want {
					t.Fatalf("a query tallied %+v, the global counters moved %+v", res.Tally, want)
				}
				prev = now
			}
			for _, tech := range techs {
				for _, w := range ws {
					res := org.WindowQuery(w, tech)
					fmt.Fprintf(hw, "%v ", res.IDs)
					put(res, hw, hw)
				}
			}
			var bits [8]byte
			for _, pt := range pts {
				res := org.PointQuery(pt)
				fmt.Fprintf(ha, "%v\n", res.IDs)
				put(res, hc, hb)
				for _, k := range []int{1, 10} {
					res := org.NearestQuery(pt, k)
					fmt.Fprintf(ha, "%v\n", res.IDs)
					put(res.QueryResult, hc, hb)
					for _, d := range res.Dists {
						binary.LittleEndian.PutUint64(bits[:], math.Float64bits(d))
						ha.Write(bits[:])
					}
				}
			}
			got := sums{hw.Sum64(), ha.Sum64(), hc.Sum64(), hb.Sum64()}
			if got != c.want {
				t.Errorf("FNV-64a sums {win answers cost buf}: %#x, want %#x", got, c.want)
			}
		})
	}
}

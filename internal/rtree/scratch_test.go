package rtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/pagefile"
)

// heldPage is a slice the tree handed out, with a copy of its bytes at the
// time.
type heldPage struct {
	what      string
	got, want []byte
}

// TestScratchReuseUnobservable: the mutation path's tree-owned memory — the
// descent nodes it recycles, the page it marshals into, an unchanged node's
// page handed back to the buffer — cannot be observed from outside. A seeded
// walk of inserts and deletes grows each tree and deletes it down to empty,
// twice, over a buffer small enough to evict pages mid-mutation. After every
// step the entries equal a map oracle, the invariants hold, every payload a
// Search handed out and every node page read before the step still holds its
// bytes, every node page zero-padded to PageSize is the canonical encoding
// of its node, and the scratch holds at most 2·height nodes. The walk must
// have condensed, grown and shrunk the root and, where leaves reinsert,
// force-reinserted.
func TestScratchReuseUnobservable(t *testing.T) {
	for _, c := range []struct {
		name     string
		cfg      Config
		target   int
		reinsert bool // leaf entries move by forced reinsert
	}{
		{"rstar", Config{}, 400, true},
		{"cluster", Config{DisableLeafReinsert: true, DisableLeafCondense: true}, 400, false},
		{"variable", Config{VariableLeaf: true}, 300, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := disk.NewDefault()
			tr := New(buffer.New(d, 16), pagefile.NewAllocator(d), c.cfg)
			rng := rand.New(rand.NewSource(41))
			payload := func(id uint64) []byte {
				if !c.cfg.VariableLeaf {
					return payloadFor(id)
				}
				p := make([]byte, 8+rng.Intn(1500))
				rng.Read(p[8:])
				binary.LittleEndian.PutUint64(p, id)
				return p
			}
			live := map[uint64]stored{}
			var ids []uint64
			var next uint64
			var grew, shrank, condensed, reinserted bool
			growing, cycles := true, 0
			for step := 0; cycles < 2; step++ {
				if growing && len(ids) >= c.target {
					growing = false
				} else if !growing && len(ids) == 0 {
					growing, cycles = true, cycles+1
				}
				held, homes := holdPages(tr)
				height, pages := tr.Height(), tr.LeafPages()+tr.DirPages()
				pInsert := 0.25
				if growing {
					pInsert = 0.75
				}
				insert := len(ids) == 0 || rng.Float64() < pInsert
				if insert {
					id := next
					next++
					s := stored{r: randRect(rng), p: payload(id)}
					if len(ids) > 0 && rng.Intn(8) == 0 { // a twin rectangle: Delete must match the payload
						s.r = live[ids[rng.Intn(len(ids))]].r
					}
					tr.Insert(s.r, s.p)
					live[id] = s
					ids = append(ids, id)
				} else {
					k := rng.Intn(len(ids))
					s := live[ids[k]]
					if rng.Intn(16) == 0 {
						if deleteByPayload(tr, s.r, []byte("no such payload")) {
							t.Fatalf("step %d: deleted an entry that is not stored", step)
						}
					} else {
						if !deleteByPayload(tr, s.r, s.p) {
							t.Fatalf("step %d: delete of entry %d failed", step, ids[k])
						}
						delete(live, ids[k])
						ids[k] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					}
				}

				for _, h := range held {
					if !bytes.Equal(h.got, h.want) {
						t.Fatalf("step %d: %s changed under its reader", step, h.what)
					}
				}
				checkAgainstOracle(t, tr, step, live)
				if got := len(tr.nodes); got > 2*tr.Height() {
					t.Fatalf("step %d: scratch holds %d nodes at height %d", step, got, tr.Height())
				}

				grew = grew || tr.Height() > height
				shrank = shrank || tr.Height() < height
				if now := tr.LeafPages() + tr.DirPages(); !insert && now < pages {
					condensed = true
				}
				if insert && !reinserted {
					leaves := map[disk.PageID]bool{}
					for _, page := range homes {
						leaves[page] = true
					}
					_, after := holdPages(tr)
					for id, old := range homes {
						if now := after[id]; now != old && leaves[now] && tr.IsNodePage(old) {
							reinserted = true // moved between two data pages that both existed before
						}
					}
				}
			}
			if !grew || !shrank || !condensed || reinserted != c.reinsert {
				t.Fatalf("walk did not cover the mutation path: grew %v, shrank %v, condensed %v, reinserted %v (want %v)",
					grew, shrank, condensed, reinserted, c.reinsert)
			}
		})
	}
}

// holdPages reads every node page of tr, returning each page and each
// payload a Search hands out with a copy of its bytes, and the data page of
// every entry by payload ID.
func holdPages(tr *Tree) ([]heldPage, map[uint64]disk.PageID) {
	var held []heldPage
	for id := range tr.pageLevels {
		page := tr.buf.Get(id)
		held = append(held, heldPage{"node page", page, bytes.Clone(page)})
	}
	tr.Search(geom.R(-1, -1, 3, 3), func(e Entry) bool {
		held = append(held, heldPage{"payload", e.Payload, bytes.Clone(e.Payload)})
		return true
	})
	homes := map[uint64]disk.PageID{}
	tr.SearchLeaves(geom.R(-1, -1, 3, 3), nil, func(lm LeafMatch) bool {
		for _, e := range lm.Matched {
			homes[payloadID(e.Payload)] = lm.Page
		}
		return true
	})
	return held, homes
}

// stored is an entry as the oracle knows it.
type stored struct {
	r geom.Rect
	p []byte
}

// checkAgainstOracle requires tr to hold exactly the entries of live, keyed by
// payload ID, and to pass CheckInvariants, with every node page the canonical
// encoding of its node.
func checkAgainstOracle(t *testing.T, tr *Tree, step int, live map[uint64]stored) {
	t.Helper()
	got := map[uint64]stored{}
	tr.Search(geom.R(-1, -1, 3, 3), func(e Entry) bool {
		id := payloadID(e.Payload)
		if _, dup := got[id]; dup {
			t.Fatalf("step %d: entry %d stored twice", step, id)
		}
		got[id] = stored{e.Rect, e.Payload}
		return true
	})
	n := len(live)
	if len(got) != n || tr.Len() != n {
		t.Fatalf("step %d: Search finds %d entries, Len %d, oracle %d", step, len(got), tr.Len(), n)
	}
	for id, want := range live {
		if g, ok := got[id]; !ok || g.r != want.r || !bytes.Equal(g.p, want.p) {
			t.Fatalf("step %d: entry %d is %v/%x, want %v/%x", step, id, g.r, g.p, want.r, want.p)
		}
	}
	if cnt, err := tr.CheckInvariants(); err != nil || cnt != n {
		t.Fatalf("step %d: invariants: %d entries, %v", step, cnt, err)
	}
	for id := range tr.pageLevels {
		page := tr.buf.Get(id)
		if len(page) > 0 && !bytes.Equal(padPage(page), tr.marshalNode(tr.DecodeNode(id, page))) {
			t.Fatalf("step %d: page %d is not the canonical encoding of its node", step, id)
		}
	}
}

package store

import (
	"hash/maphash"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// sealedBackend is a memory backend that holds every writer to the contract
// of disk.Backend.WriteRun — a page handed over is never written again. It
// hashes each slice WriteRun receives and, at every ReadRun and on check,
// re-hashes every slice it still holds.
type sealedBackend struct {
	*disk.MemBackend
	t     *testing.T
	seed  maphash.Seed
	held  map[disk.PageID]sealedPage
	reads int
}

type sealedPage struct {
	data []byte
	sum  uint64
}

func newSealedBackend(t *testing.T) *sealedBackend {
	return &sealedBackend{MemBackend: disk.NewMemBackend(), t: t, seed: maphash.MakeSeed(),
		held: make(map[disk.PageID]sealedPage)}
}

func (b *sealedBackend) WriteRun(start disk.PageID, data [][]byte) {
	b.MemBackend.WriteRun(start, data)
	for i, pg := range data {
		if pg == nil {
			delete(b.held, start+disk.PageID(i))
			continue
		}
		b.held[start+disk.PageID(i)] = sealedPage{pg, maphash.Bytes(b.seed, pg)}
	}
}

func (b *sealedBackend) Free(start disk.PageID, n int) {
	b.MemBackend.Free(start, n)
	for i := 0; i < n; i++ {
		delete(b.held, start+disk.PageID(i))
	}
}

func (b *sealedBackend) ReadRun(start disk.PageID, pages [][]byte) {
	b.check("a read")
	b.reads++
	b.MemBackend.ReadRun(start, pages)
}

// check fails the test when a page the backend holds changed since it was
// handed over.
func (b *sealedBackend) check(when string) {
	b.t.Helper()
	for id, s := range b.held {
		if maphash.Bytes(b.seed, s.data) != s.sum {
			b.t.Fatalf("page %d was written after it was handed to the backend (found at %s)", id, when)
		}
	}
}

// TestHandedOverPagesStayUnwritten runs each organization over a backend
// that checks the handover contract: insert/update/delete churn with queries
// between the mutations, Flush, reclustering (a repack of every unit with
// dead bytes and a full rebuild, on the cluster organization), a snapshot
// saved and restored onto a second such backend, more churn there, and a
// Poke from a buffer its caller then reuses. No page any backend holds may
// change after it was handed over.
func TestHandedOverPagesStayUnwritten(t *testing.T) {
	ds := testDataset(64)
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 600, HotspotFrac: 0.5, Seed: 57})
	for _, c := range []struct {
		name  string
		build func(*Env) Organization
	}{
		{"secondary", func(env *Env) Organization { return NewSecondary(env) }},
		{"primary", func(env *Env) Organization { return NewPrimary(env) }},
		{"cluster", func(env *Env) Organization {
			return NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sealed := newSealedBackend(t)
			env := NewEnvOn(8, buffer.PolicyLRU, disk.DefaultParams(), sealed)
			org := c.build(env)
			for i, o := range ds.Objects {
				if err := org.Insert(o, ds.MBRs[i]); err != nil {
					t.Fatal(err)
				}
			}
			applyChurn(t, org, ops[:len(ops)/2])
			org.Flush()
			if cl, ok := org.(*Cluster); ok {
				for _, uf := range cl.UnitFrags() {
					cl.RepackUnit(uf.Leaf)
				}
				cl.WindowQuery(geom.R(0, 0, 1, 1), TechComplete)
				cl.Rebuild(0)
				org.Flush()
			}
			sealed.check("the end of the first half")

			img, err := Snapshot(org)
			if err != nil {
				t.Fatal(err)
			}
			restored := newSealedBackend(t)
			env2 := NewEnvOn(8, buffer.PolicyLRU, disk.DefaultParams(), restored)
			org2, err := Restore(img, env2)
			if err != nil {
				t.Fatal(err)
			}
			applyChurn(t, org2, ops[len(ops)/2:])
			org2.Flush()

			// A caller of Poke may reuse its buffer.
			buf := []byte("poked page")
			spare := env2.Disk.Grow(1)
			env2.Disk.Poke(spare, buf)
			clear(buf)
			env2.Disk.ReadRun(spare, make([][]byte, 1), false, nil)

			sealed.check("the end")
			restored.check("the end")
			t.Logf("%d and %d reads checked %d and %d held pages", sealed.reads, restored.reads, len(sealed.held), len(restored.held))
		})
	}
}

// applyChurn applies the mutations of ops to org and runs its window
// queries, so reads come between the writes.
func applyChurn(t *testing.T, org Organization, ops []datagen.Op) {
	t.Helper()
	for _, op := range ops {
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
		case datagen.OpWindow:
			org.WindowQuery(op.Window, TechComplete)
		}
	}
}

package store

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
)

func TestOrganizationNames(t *testing.T) {
	ds := testDataset(2048)
	want := map[string]Organization{
		"sec. org.":    NewSecondary(NewEnv(64)),
		"prim. org.":   NewPrimary(NewEnv(64)),
		"cluster org.": NewCluster(NewEnv(64), ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()}),
	}
	for name, org := range want {
		if org.Name() != name {
			t.Errorf("Name = %q, want %q", org.Name(), name)
		}
	}
}

func TestClusterConfigAccessor(t *testing.T) {
	cfg := ClusterConfig{SmaxBytes: 81920, BuddySizes: 3}
	c := NewCluster(NewEnv(64), cfg)
	if c.Config() != cfg {
		t.Fatalf("Config = %+v", c.Config())
	}
}

func TestNewEnvWithParams(t *testing.T) {
	p := disk.Params{SeekMS: 1, LatencyMS: 2, TransferMS: 3}
	env := NewEnvWithParams(32, p)
	if env.Params() != p {
		t.Fatalf("params = %+v", env.Params())
	}
	if env.Buf.Capacity() != 32 {
		t.Fatalf("buffer capacity = %d", env.Buf.Capacity())
	}
}

func TestDecodeEntryIDAndDemand(t *testing.T) {
	ds := testDataset(256)
	orgs := buildAll(t, ds, 512)
	for name, org := range orgs {
		count := 0
		org.Tree().WalkNodes(func(n *rtree.Node) bool {
			if !n.IsLeaf() || count > 3 {
				return count <= 3
			}
			count++
			var ids []object.ID
			for _, e := range n.Entries {
				id, size := DecodeEntryID(org, e)
				if size <= 0 {
					t.Fatalf("%s: entry size %d", name, size)
				}
				ids = append(ids, id)
			}
			d := ObjectPageDemand(org, n.ID, ids)
			if len(d.Units) == 0 {
				t.Fatalf("%s: demand without units", name)
			}
			if len(d.Pages) == 0 {
				t.Fatalf("%s: demand without pages", name)
			}
			switch org.(type) {
			case *Cluster:
				if len(d.Units) != 1 {
					t.Fatalf("cluster: %d units for one leaf", len(d.Units))
				}
			case *Secondary:
				if len(d.Units) != len(ids) {
					t.Fatalf("secondary: %d units for %d objects", len(d.Units), len(ids))
				}
			case *Primary:
				if d.Pages[0] != n.ID {
					t.Fatal("primary demand must include the leaf page")
				}
			}
			return true
		})
		if count == 0 {
			t.Fatalf("%s: no leaves visited", name)
		}
	}
}

func TestDemandConsistentWithFetchCost(t *testing.T) {
	// The demand's page count is a lower bound on the pages a cold
	// complete fetch transfers for the cluster organization.
	ds := testDataset(256)
	env := NewEnv(512)
	c := NewCluster(env, ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes()})
	for i, o := range ds.Objects {
		c.Insert(o, ds.MBRs[i])
	}
	c.Flush()
	env.Buf.Clear()

	var leaf disk.PageID
	var ids []object.ID
	c.Tree().WalkNodes(func(n *rtree.Node) bool {
		if n.IsLeaf() && len(ids) == 0 {
			leaf = n.ID
			for _, e := range n.Entries {
				id, _ := decodePayload(e.Payload)
				ids = append(ids, id)
			}
		}
		return len(ids) == 0
	})
	d := ObjectPageDemand(c, leaf, ids)
	before := env.Disk.Cost()
	c.PrepareFetch(leaf, ids, env.Buf, TechSLM)()
	diff := env.Disk.Cost().Sub(before)
	if diff.PagesRead < int64(len(d.Pages)) {
		t.Fatalf("fetch read %d pages, demand says at least %d", diff.PagesRead, len(d.Pages))
	}
}

// TestDemandAsksTheLayout: demand.go asks an organization's layout what to
// read instead of switching on which organization it is, so it has no type
// switch and no type assertion to an organization type.
func TestDemandAsksTheLayout(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demand.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if a, ok := n.(*ast.TypeAssertExpr); ok { // a type switch's x.(type) has no Type
			star, _ := a.Type.(*ast.StarExpr)
			if a.Type == nil || star != nil && slices.Contains([]string{"Secondary", "Primary", "Cluster"}, fmt.Sprint(star.X)) {
				t.Errorf("%s: demand.go switches on or asserts an organization's type", fset.Position(a.Pos()))
			}
		}
		return true
	})
}

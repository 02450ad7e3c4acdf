package spatialcluster

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompressedBackendDifferential builds the same cluster store on the
// memory backend and on a compressed file backend and checks that answers,
// modelled costs and storage statistics are identical — compression is
// invisible above the backend — while the compressed backend actually saves
// written bytes.
func TestCompressedBackendDifferential(t *testing.T) {
	mem := buildSmallStore(t, StoreConfig{})
	comp := buildSmallStore(t, StoreConfig{
		Backend:  BackendFile,
		Path:     filepath.Join(t.TempDir(), "comp.db"),
		Compress: true,
	})
	defer CloseStore(comp)

	if ms, cs := mem.Stats(), comp.Stats(); ms != cs {
		t.Fatalf("storage stats differ:\nmem  %+v\ncomp %+v", ms, cs)
	}
	for _, w := range []Rect{
		R(0.1, 0.1, 0.6, 0.6), R(0, 0, 1, 1), R(0.4, 0.2, 0.45, 0.3),
	} {
		for _, tech := range []Technique{TechComplete, TechThreshold, TechSLM, TechSLMVector, TechPageByPage} {
			mr := mem.WindowQuery(w, tech)
			cr := comp.WindowQuery(w, tech)
			if !reflect.DeepEqual(mr.IDs, cr.IDs) || mr.Candidates != cr.Candidates {
				t.Fatalf("window %v tech %v: answers differ", w, tech)
			}
			if mr.Cost != cr.Cost {
				t.Fatalf("window %v tech %v: modelled cost differs: mem %+v comp %+v",
					w, tech, mr.Cost, cr.Cost)
			}
		}
	}
	mn := mem.NearestQuery(Pt(0.5, 0.5), 10)
	cn := comp.NearestQuery(Pt(0.5, 0.5), 10)
	if !reflect.DeepEqual(mn.IDs, cn.IDs) || !reflect.DeepEqual(mn.Dists, cn.Dists) {
		t.Fatal("k-NN answers differ between backends")
	}
	if mn.Cost != cn.Cost {
		t.Fatalf("k-NN modelled cost differs: mem %+v comp %+v", mn.Cost, cn.Cost)
	}

	st := CompressionIO(comp)
	if st.Saved() <= 0 || st.PagesComp == 0 {
		t.Fatalf("compressed backend saved nothing: %+v", st)
	}
	if CompressionIO(mem) != (CompressionStats{}) {
		t.Fatal("memory backend reports compression stats")
	}
}

// TestCompressedPersistRoundTrip checks that a compressed store's snapshot
// reopens onto a fresh compressed page file with answers intact.
func TestCompressedPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "comp.db")
	cfg := StoreConfig{Backend: BackendFile, Path: path, Compress: true}
	org := buildSmallStore(t, cfg)
	w := R(0.1, 0.1, 0.6, 0.6)
	want := queryIDs(org, w)
	snap := filepath.Join(t.TempDir(), "store.sdb")
	if err := Save(org, snap); err != nil {
		t.Fatal(err)
	}
	if err := CloseStore(org); err != nil {
		t.Fatal(err)
	}

	cfg.Path = filepath.Join(t.TempDir(), "comp2.db")
	re, err := Open(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseStore(re)
	if got := queryIDs(re, w); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers changed across reopen: %d vs %d ids", len(got), len(want))
	}
}

package exp

import (
	"testing"
)

// TestBackendBenchSmoke checks the preset run of the backend benchmark for
// its two invariants: modelled columns are identical across the memory and
// file backends, and the file-backed store survives a Save/Open round trip
// with identical stats and answers. It also verifies that the file backends
// really performed wall-clock I/O while the memory backend did not.
func TestBackendBenchSmoke(t *testing.T) {
	r := preset(t, "backend").(backendResult)

	if !r.ModelMatch {
		t.Error("modelled columns differ across backends")
	}
	if !r.ReopenMatch {
		t.Error("file-backed store did not reopen bit-identical")
	}
	if len(r.Builds) != 6 { // 2 backends x 3 organizations
		t.Fatalf("builds = %d, want 6", len(r.Builds))
	}
	if len(r.QueryRuns) != 12 { // per backend: sec + prim + cluster x 4 techniques
		t.Fatalf("query runs = %d, want 12", len(r.QueryRuns))
	}
	for _, b := range r.Builds {
		fileBacked := b.Backend != backendMem
		if fileBacked && b.WallIOSec <= 0 {
			t.Errorf("%s %s: file backend measured no I/O", b.Backend, b.Org)
		}
		if !fileBacked && b.WallIOSec != 0 {
			t.Errorf("%s %s: memory backend measured I/O", b.Backend, b.Org)
		}
	}
}

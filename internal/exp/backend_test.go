package exp

import (
	"testing"
)

// TestBackendBenchSmoke checks the preset run of the backend benchmark for
// its two invariants: modelled columns are identical across the memory and
// file backends, and the file-backed store survives a Save/Open round trip
// with identical stats and answers. It also verifies that the file backends
// really performed wall-clock I/O while the memory backend did not, and that
// the compressed backend saved bytes.
func TestBackendBenchSmoke(t *testing.T) {
	r := preset(t, "backend").(backendResult)

	if !r.ModelMatch {
		t.Error("modelled columns differ across backends")
	}
	if !r.ReopenMatch {
		t.Error("file-backed store did not reopen bit-identical")
	}
	if len(r.Builds) != 9 { // 3 backends x 3 organizations
		t.Fatalf("builds = %d, want 9", len(r.Builds))
	}
	if len(r.QueryRuns) != 18 { // per backend: sec + prim + cluster x 4 techniques
		t.Fatalf("query runs = %d, want 18", len(r.QueryRuns))
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
	if len(r.Compression) != len(allOrgs) {
		t.Fatalf("compression rows = %d, want %d", len(r.Compression), len(allOrgs))
	}
	for _, row := range r.Compression {
		if row.RawBytes == 0 || row.StoredBytes == 0 || row.SavedBytes <= 0 {
			t.Fatalf("implausible compression row %+v", row)
		}
	}
}

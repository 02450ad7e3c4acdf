package filebackend

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"spatialcluster/internal/disk"
)

// coordPage builds a page of slowly varying float64 coordinates — the shape
// of a real object page — plus a zero tail like a partially filled page.
func coordPage(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pg := make([]byte, disk.PageSize)
	x, y := rng.Float64(), rng.Float64()
	for off := 0; off < disk.PageSize*3/4; off += 16 {
		x += (rng.Float64() - 0.5) * 1e-3
		y += (rng.Float64() - 0.5) * 1e-3
		binary.LittleEndian.PutUint64(pg[off:], math.Float64bits(x))
		binary.LittleEndian.PutUint64(pg[off+8:], math.Float64bits(y))
	}
	return pg
}

func TestCompressPageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, disk.PageSize)
	rng.Read(random)

	cases := map[string][]byte{
		"zero":   make([]byte, disk.PageSize),
		"coords": coordPage(7),
		"random": random,
	}
	for name, pg := range cases {
		enc := compressPage(nil, pg)
		if enc == nil {
			if name != "random" {
				t.Errorf("%s page did not compress", name)
			}
			continue
		}
		if name == "random" {
			t.Error("random page compressed below PageSize")
			continue
		}
		if len(enc) >= disk.PageSize {
			t.Errorf("%s page encoding is %d bytes", name, len(enc))
		}
		dec := make([]byte, disk.PageSize)
		if err := decompressPage(dec, enc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dec, pg) {
			t.Fatalf("%s page did not round-trip", name)
		}
	}
	// A coordinate page should shrink substantially, not marginally.
	if enc := compressPage(nil, cases["coords"]); len(enc) > disk.PageSize*3/4 {
		t.Errorf("coordinate page compressed to only %d of %d bytes", len(enc), disk.PageSize)
	}
}

func TestDecompressRejectsMalformed(t *testing.T) {
	enc := compressPage(nil, coordPage(3))
	dec := make([]byte, disk.PageSize)
	if err := decompressPage(dec, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if err := decompressPage(dec, append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := decompressPage(dec, nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
}

// TestCompressedBackendEquivalence drives a compressed file backend, a raw
// file backend and the memory backend through the same operation sequence:
// every read must observe identical bytes on all three.
func TestCompressedBackendEquivalence(t *testing.T) {
	dir := t.TempDir()
	cb, err := Open(filepath.Join(dir, "comp.db"), Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	fb, err := Open(filepath.Join(dir, "raw.db"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	mb := disk.NewMemBackend()

	rng := rand.New(rand.NewSource(2))
	random := make([]byte, disk.PageSize)
	rng.Read(random)
	for _, b := range []disk.Backend{cb, fb, mb} {
		b.Alloc(8)
		b.WriteRun(0, [][]byte{coordPage(1), coordPage(2), random})
		b.WriteRun(5, [][]byte{[]byte("short page"), nil})
		b.Free(1, 1)
		b.Alloc(2)
		b.WriteRun(8, [][]byte{coordPage(9)})
	}
	if cb.NumPages() != 10 || fb.NumPages() != 10 {
		t.Fatalf("NumPages: comp %d raw %d, want 10", cb.NumPages(), fb.NumPages())
	}
	for _, run := range [][2]int{{0, 10}, {0, 1}, {2, 3}, {8, 2}} {
		got := readRun(cb, disk.PageID(run[0]), run[1])
		want := readRun(mb, disk.PageID(run[0]), run[1])
		for i := range want {
			w := make([]byte, disk.PageSize)
			copy(w, want[i])
			if !bytes.Equal(got[i], w) {
				t.Fatalf("run %v: page %d differs from mem backend", run, run[0]+i)
			}
		}
	}

	st := cb.CompStats()
	if st.PagesComp == 0 || st.PagesRaw == 0 || st.PagesZero == 0 {
		t.Fatalf("expected all three slot kinds, got %+v", st)
	}
	if st.Saved() <= 0 {
		t.Fatalf("compression saved %d bytes on a compressible workload", st.Saved())
	}
	if fb.CompStats() != (CompStats{}) {
		t.Fatalf("raw backend reported compression stats: %+v", fb.CompStats())
	}
}

// TestDiskCostInvariantCompressed charges the same modelled costs on the
// compressed backend as on the memory backend.
func TestDiskCostInvariantCompressed(t *testing.T) {
	cb, err := Open(filepath.Join(t.TempDir(), "comp.db"), Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	dComp := disk.NewWithBackend(disk.DefaultParams(), cb)
	dMem := disk.NewDefault()
	for _, d := range []*disk.Disk{dComp, dMem} {
		d.Grow(16)
		d.WriteRun(0, [][]byte{coordPage(1), coordPage(2)}, nil)
		d.ReadRun(0, make([][]byte, 2), false, nil)
		d.ReadRun(4, make([][]byte, 3), true, nil)
		d.WritePage(9, coordPage(3))
	}
	if dComp.Cost() != dMem.Cost() {
		t.Fatalf("modelled cost differs: compressed %v, mem %v", dComp.Cost(), dMem.Cost())
	}
	if err := dComp.Close(); err != nil {
		t.Fatal(err)
	}
}

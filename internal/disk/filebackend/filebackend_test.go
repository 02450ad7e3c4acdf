package filebackend

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spatialcluster/internal/disk"
)

// fill returns a page-sized buffer filled with b.
func fill(b byte) []byte {
	buf := make([]byte, disk.PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// readRun reads n pages from start into a fresh page slice.
func readRun(b disk.Backend, start disk.PageID, n int) [][]byte {
	pages := make([][]byte, n)
	b.ReadRun(start, pages)
	return pages
}

// TestMemEquivalence drives a mem backend and a file backend through the
// same operation sequence and checks that every read observes identical
// bytes (nil pages count as all-zero).
func TestMemEquivalence(t *testing.T) {
	fb, err := Open(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	mb := disk.NewMemBackend()

	norm := func(pages [][]byte) [][]byte {
		out := make([][]byte, len(pages))
		for i, pg := range pages {
			full := make([]byte, disk.PageSize)
			copy(full, pg)
			out[i] = full
		}
		return out
	}
	check := func(step string, start disk.PageID, n int) {
		t.Helper()
		got, want := norm(readRun(fb, start, n)), norm(readRun(mb, start, n))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: page %d differs between backends", step, start+disk.PageID(i))
			}
		}
	}

	for _, b := range []disk.Backend{fb, mb} {
		if first := b.Alloc(8); first != 0 {
			t.Fatalf("Alloc returned %d, want 0", first)
		}
		b.WriteRun(2, [][]byte{fill('a'), fill('b'), fill('c')})
		b.WriteRun(6, [][]byte{[]byte("short page content")}) // padded with zeroes
		b.Free(3, 1)
		b.Alloc(4)
		b.WriteRun(9, [][]byte{fill('z')})
	}
	if fb.NumPages() != mb.NumPages() || fb.NumPages() != 12 {
		t.Fatalf("NumPages: file %d mem %d, want 12", fb.NumPages(), mb.NumPages())
	}
	check("full scan", 0, 12)

	m := fb.Measured()
	if m.Writes == 0 || m.Reads == 0 || m.PagesWritten == 0 {
		t.Fatalf("file backend reported no measured I/O: %+v", m)
	}
	if (mb.Measured() != disk.Measured{}) {
		t.Fatalf("mem backend reported measured I/O: %+v", mb.Measured())
	}
}

// TestOpenRefusesUsedFile checks that the page file is scratch: Open takes
// a new or empty file only, and refuses one that holds bytes without
// changing it.
func TestOpenRefusesUsedFile(t *testing.T) {
	// "raw": the page file stores pages uncompressed.
	t.Run("raw", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "used.db")
		used := bytes.Repeat(fill(0xAB), 3)
		if err := os.WriteFile(path, used, 0o644); err != nil {
			t.Fatal(err)
		}
		if fb, err := Open(path); err == nil {
			fb.Close()
			t.Fatal("Open accepted a file holding three pages")
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, used) {
			t.Fatalf("the refused file changed: %d bytes, was %d", len(got), len(used))
		}

		empty := filepath.Join(t.TempDir(), "empty.db")
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		fb, err := Open(empty)
		if err != nil {
			t.Fatalf("Open of an empty file: %v", err)
		}
		defer fb.Close()
		if fb.NumPages() != 0 {
			t.Fatalf("an empty file opened with %d pages", fb.NumPages())
		}
	})
}

// TestDiskOnFileBackend runs the modelled disk over the file backend and
// checks that modelled costs are charged exactly as on the memory backend.
func TestDiskOnFileBackend(t *testing.T) {
	fb, err := Open(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	dFile := disk.NewWithBackend(disk.DefaultParams(), fb)
	dMem := disk.NewDefault()
	for _, d := range []*disk.Disk{dFile, dMem} {
		d.Grow(16)
		d.WriteRun(0, [][]byte{fill('a'), fill('b')}, nil)
		d.ReadRun(0, make([][]byte, 2), false, nil)
		d.ReadRun(4, make([][]byte, 3), true, nil)
		d.WritePage(9, fill('q'))
	}
	if dFile.Cost() != dMem.Cost() {
		t.Fatalf("modelled cost differs: file %v, mem %v", dFile.Cost(), dMem.Cost())
	}
	if dFile.Measured().IOSeconds() <= 0 {
		t.Fatal("file-backed disk measured no wall-clock I/O")
	}
	if err := dFile.Close(); err != nil {
		t.Fatal(err)
	}
}

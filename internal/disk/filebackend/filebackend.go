package filebackend

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"spatialcluster/internal/disk"
)

// FileBackend is a disk.Backend over one os.File.
type FileBackend struct {
	f        *os.File
	numPages atomic.Int64

	reads, writes           atomic.Int64
	pagesRead, pagesWritten atomic.Int64
	readNS, writeNS         atomic.Int64
}

// Open creates the backing file at path, or opens it if it exists and is
// empty. A file that holds bytes is refused and left untouched: the page file
// is scratch, so no backend ever starts from pages an earlier one wrote.
func Open(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() != 0 {
		err = fmt.Errorf("%s holds %d bytes; a page file must be new or empty", path, st.Size())
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	return &FileBackend{f: f}, nil
}

// NumPages implements disk.Backend.
func (b *FileBackend) NumPages() disk.PageID {
	return disk.PageID(b.numPages.Load())
}

// Alloc implements disk.Backend: the file is extended by n zero pages.
func (b *FileBackend) Alloc(n int) disk.PageID {
	first := b.numPages.Load()
	if err := b.f.Truncate((first + int64(n)) * disk.PageSize); err != nil {
		panic(fmt.Sprintf("filebackend: extending %s: %v", b.f.Name(), err))
	}
	b.numPages.Store(first + int64(n))
	return disk.PageID(first)
}

// Free implements disk.Backend. The file keeps its size (page IDs stay
// valid); the freed range is zeroed so a freed-then-reallocated page reads
// the same as on the memory backend. The zeroing is a real write and is
// counted as one in Measured.
func (b *FileBackend) Free(start disk.PageID, n int) {
	zero := make([]byte, n*disk.PageSize)
	b.writeAt(zero, int64(start)*disk.PageSize)
	b.writes.Add(1)
	b.pagesWritten.Add(int64(n))
}

// ReadRun implements disk.Backend with one positioned read for the whole run
// into fresh page bytes, the only allocation.
func (b *FileBackend) ReadRun(start disk.PageID, pages [][]byte) {
	n := len(pages)
	buf := make([]byte, n*disk.PageSize)
	t0 := time.Now()
	if _, err := b.f.ReadAt(buf, int64(start)*disk.PageSize); err != nil && err != io.EOF {
		panic(fmt.Sprintf("filebackend: reading pages [%d,+%d) of %s: %v", start, n, b.f.Name(), err))
	}
	b.readNS.Add(time.Since(t0).Nanoseconds())
	b.reads.Add(1)
	b.pagesRead.Add(int64(n))
	for i := range pages {
		pages[i] = buf[i*disk.PageSize : (i+1)*disk.PageSize]
	}
}

// WriteRun implements disk.Backend with one positioned write for the whole
// run. Short and nil slices are padded with zeroes to a full page.
func (b *FileBackend) WriteRun(start disk.PageID, data [][]byte) {
	buf := make([]byte, len(data)*disk.PageSize)
	for i, pg := range data {
		copy(buf[i*disk.PageSize:(i+1)*disk.PageSize], pg)
	}
	b.writeAt(buf, int64(start)*disk.PageSize)
	b.writes.Add(1)
	b.pagesWritten.Add(int64(len(data)))
}

func (b *FileBackend) writeAt(buf []byte, off int64) {
	t0 := time.Now()
	if _, err := b.f.WriteAt(buf, off); err != nil {
		panic(fmt.Sprintf("filebackend: writing %s: %v", b.f.Name(), err))
	}
	b.writeNS.Add(time.Since(t0).Nanoseconds())
}

// Close implements disk.Backend.
func (b *FileBackend) Close() error {
	if err := b.f.Close(); err != nil {
		return fmt.Errorf("filebackend: close: %w", err)
	}
	return nil
}

// Measured implements disk.Backend.
func (b *FileBackend) Measured() disk.Measured {
	return disk.Measured{
		Reads:        b.reads.Load(),
		Writes:       b.writes.Load(),
		PagesRead:    b.pagesRead.Load(),
		PagesWritten: b.pagesWritten.Load(),
		ReadNS:       b.readNS.Load(),
		WriteNS:      b.writeNS.Load(),
	}
}

var _ disk.Backend = (*FileBackend)(nil)

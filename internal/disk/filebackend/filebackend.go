package filebackend

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"spatialcluster/internal/disk"
)

// Config tunes a file backend.
type Config struct {
	// Fsync makes every Flush call fsync the backing file, turning the
	// buffer's flush points into durability barriers. Without it, Flush
	// only pushes the pages into the OS page cache.
	Fsync bool
	// Compress stores every page delta+varint encoded in a fixed slot (see
	// comp.go for the layout): writes put only the encoded bytes on disk
	// and CompStats reports the bytes-saved vs CPU-spent tradeoff. Modelled
	// costs, query answers and storage statistics are unchanged — the
	// choice is invisible above the backend. A backing file is either raw
	// or compressed for its whole life; Open rejects a mismatch.
	Compress bool
}

// FileBackend is a disk.Backend over one os.File.
type FileBackend struct {
	f        *os.File
	cfg      Config
	numPages atomic.Int64

	// lens holds the stored payload length per page slot when compressing
	// (only touched by the serialized Backend calls, like the file offsets).
	lens []uint16

	reads, writes, syncs    atomic.Int64
	pagesRead, pagesWritten atomic.Int64
	readNS, writeNS, syncNS atomic.Int64

	pagesZero, pagesRaw, pagesComp atomic.Int64
	rawBytes, storedBytes          atomic.Int64
	compressNS, decompressNS       atomic.Int64
}

// Open creates or opens the backing file at path. An existing file must have
// a whole number of pages; its pages become the backend's initial contents
// (this is how a persisted store's page image is reopened in place).
func Open(path string, cfg Config) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	b := &FileBackend{f: f, cfg: cfg}
	if cfg.Compress {
		if err := b.openCompressed(st); err != nil {
			f.Close()
			return nil, err
		}
		return b, nil
	}
	if st.Size()%disk.PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("filebackend: %s holds %d bytes, not a whole number of %d-byte pages",
			path, st.Size(), disk.PageSize)
	}
	b.numPages.Store(st.Size() / disk.PageSize)
	return b, nil
}

// Path returns the backing file's name.
func (b *FileBackend) Path() string { return b.f.Name() }

// NumPages implements disk.Backend.
func (b *FileBackend) NumPages() disk.PageID {
	return disk.PageID(b.numPages.Load())
}

// Alloc implements disk.Backend: the file is extended by n zero pages.
func (b *FileBackend) Alloc(n int) disk.PageID {
	if b.cfg.Compress {
		return b.allocCompressed(n)
	}
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
	if b.cfg.Compress {
		b.freeCompressed(start, n)
		return
	}
	zero := make([]byte, n*disk.PageSize)
	b.writeAt(zero, int64(start)*disk.PageSize)
	b.writes.Add(1)
	b.pagesWritten.Add(int64(n))
}

// ReadRun implements disk.Backend with one positioned read for the whole run
// into fresh page bytes, the only allocation.
func (b *FileBackend) ReadRun(start disk.PageID, pages [][]byte) {
	if b.cfg.Compress {
		b.readRunCompressed(start, pages)
		return
	}
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
	if b.cfg.Compress {
		b.writeRunCompressed(start, data)
		return
	}
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

// Flush implements disk.Backend: an fsync barrier when Config.Fsync is set,
// otherwise a no-op (the writes already sit in the OS page cache).
func (b *FileBackend) Flush() error {
	if !b.cfg.Fsync {
		return nil
	}
	t0 := time.Now()
	err := b.f.Sync()
	b.syncNS.Add(time.Since(t0).Nanoseconds())
	b.syncs.Add(1)
	if err != nil {
		return fmt.Errorf("filebackend: fsync %s: %w", b.f.Name(), err)
	}
	return nil
}

// Close implements disk.Backend, syncing once regardless of Config.Fsync so
// a cleanly closed store is always durable.
func (b *FileBackend) Close() error {
	if err := b.f.Sync(); err != nil {
		b.f.Close()
		return fmt.Errorf("filebackend: fsync %s: %w", b.f.Name(), err)
	}
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
		Syncs:        b.syncs.Load(),
		PagesRead:    b.pagesRead.Load(),
		PagesWritten: b.pagesWritten.Load(),
		ReadNS:       b.readNS.Load(),
		WriteNS:      b.writeNS.Load(),
		SyncNS:       b.syncNS.Load(),
	}
}

var _ disk.Backend = (*FileBackend)(nil)

package wal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// blockSize is the unit of a segment write, aligned as O_DIRECT requires.
const blockSize = 4096

// File is the write handle of one segment file: Write appends at its
// logical end, Sync is the durability barrier. Recovery reads by path.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FileSystem abstracts how segment files are created and reopened and their
// directory synced, so the fault-injection harness (internal/faultinject)
// can make the Nth operation fail, short-write or flip a bit.
type FileSystem interface {
	// Create makes a fresh file, its first size bytes reserved; it fails if
	// the file already exists (a segment name collision is always a bug).
	Create(path string, size int64) (File, error)
	// OpenAppend reopens a segment for appending at its logical end end.
	OpenAppend(path string, end int64) (File, error)
	// SyncDir makes dir's entries durable: a new segment, a renamed snapshot.
	SyncDir(dir string) error
}

// OS is the real filesystem. Its segments write around the page cache where
// the OS allows (O_DIRECT on Linux; a filesystem that refuses it with EINVAL
// gets the same file type through the cache) and sync with fdatasync.
var OS FileSystem = osFS{}

type osFS struct{}

func (osFS) Create(path string, size int64) (File, error) {
	return openSegment(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0, size)
}

func (osFS) OpenAppend(path string, end int64) (File, error) {
	return openSegment(path, os.O_RDWR, end, 0)
}

func (osFS) SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil // a directory handle opened for reading cannot be flushed there
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openSegment opens a segment whose logical end is end, reads back the
// partial block the next write rewrites and, for a new segment, reserves
// its first size bytes.
func openSegment(path string, flag int, end, size int64) (File, error) {
	f, err := os.OpenFile(path, flag|oDirect, 0o644)
	if oDirect != 0 && errors.Is(err, syscall.EINVAL) {
		f, err = os.OpenFile(path, flag&^os.O_EXCL, 0o644) // the refused open may have created it
	}
	if err != nil {
		return nil, err
	}
	s := &segFile{f: f, end: end, buf: alignedBlocks(2 * blockSize)}
	tail := int(end % blockSize)
	if n, err := f.ReadAt(s.buf[:blockSize], end-int64(tail)); n < tail {
		f.Close()
		return nil, fmt.Errorf("reading the last block of %s: %d of %d bytes: %v", path, n, tail, err)
	}
	// Zero-fill the reservation, 64 KiB a write: the commits that fill it only
	// overwrite allocated blocks, so no fdatasync of theirs writes metadata,
	// and one that enters a new block costs what any other does.
	zero := alignedBlocks(int(min((size+blockSize-1)&^(blockSize-1), 64<<10)))
	for off := int64(0); off < size; off += int64(len(zero)) {
		if _, err := f.WriteAt(zero, off); err != nil {
			f.Close()
			return nil, fmt.Errorf("reserving %d bytes of %s: %w", size, path, err)
		}
	}
	return s, nil
}

// segFile writes a segment in whole blocks: Write copies p after the tail
// block held in buf and rewrites the blocks they cover, zero-padded past the
// new logical end. buf grows only for a write that does not fit.
type segFile struct {
	f   *os.File
	end int64  // logical end: header plus records
	buf []byte // block-aligned in memory; buf[:end%blockSize] is the tail block
}

func (s *segFile) Write(p []byte) (int, error) {
	tail := int(s.end % blockSize)
	used := tail + len(p)
	n := (used + blockSize - 1) &^ (blockSize - 1)
	if n > len(s.buf) {
		grown := alignedBlocks(n)
		copy(grown, s.buf[:tail])
		s.buf = grown
	}
	copy(s.buf[tail:], p)
	clear(s.buf[used:n])
	if w, err := s.f.WriteAt(s.buf[:n], s.end-int64(tail)); err != nil {
		return max(0, min(w-tail, len(p))), err
	}
	s.end += int64(len(p))
	copy(s.buf, s.buf[used&^(blockSize-1):used])
	return len(p), nil
}

func (s *segFile) Sync() error  { return datasync(s.f) }
func (s *segFile) Close() error { return s.f.Close() }

// alignedBlocks returns n zeroed bytes on a block boundary in memory.
func alignedBlocks(n int) []byte {
	b := make([]byte, n+blockSize)
	off := int(-uintptr(unsafe.Pointer(&b[0])) & (blockSize - 1))
	return b[off : off+n : off+n]
}

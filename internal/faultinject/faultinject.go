// Package faultinject is the scriptable fault layer of the durability
// tests: a wal.FileSystem around wal.OS whose Nth operation fails,
// short-writes or flips a bit. The kill-at-N differential suite scripts it
// to "crash" a store at a chosen write-ahead log operation and then checks
// that recovery restores exactly the acknowledged prefix.
package faultinject

import (
	"fmt"
	"maps"
	"sync"

	"spatialcluster/internal/wal"
)

// Kind selects what happens at a scripted operation.
type Kind int

// The fault kinds.
const (
	// Fail makes the operation return an error without any effect.
	Fail Kind = iota
	// ShortWrite persists only the first half of the buffer, then errors —
	// the torn write a crash mid-write leaves behind. On any sync it degrades
	// to Fail.
	ShortWrite
	// BitFlip silently corrupts one bit of the buffer and reports success —
	// the medium lied. On any sync it is a no-op.
	BitFlip
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if names := [...]string{Fail: "fail", ShortWrite: "short-write", BitFlip: "bit-flip"}; k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FS is a wal.FileSystem that counts every Write, Sync and SyncDir (1-based,
// in call order) and injects the scripted fault when the counter hits its
// operation number.
type FS struct {
	mu     sync.Mutex
	ops    int64
	faults map[int64]Kind
}

// NewFS builds a fault-injecting filesystem. faults maps 1-based operation
// numbers (Writes, Syncs and SyncDirs, in call order) to the fault to inject.
func NewFS(faults map[int64]Kind) *FS {
	return &FS{faults: maps.Clone(faults)}
}

// Ops returns how many operations have been counted so far.
func (fs *FS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// next advances the operation counter and returns the fault scheduled for
// this operation, if any.
func (fs *FS) next() (Kind, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops++
	k, ok := fs.faults[fs.ops]
	return k, ok
}

// Create implements wal.FileSystem.
func (fs *FS) Create(path string, size int64) (wal.File, error) {
	return fs.wrap(wal.OS.Create(path, size))
}

// OpenAppend implements wal.FileSystem.
func (fs *FS) OpenAppend(path string, end int64) (wal.File, error) {
	return fs.wrap(wal.OS.OpenAppend(path, end))
}

// SyncDir implements wal.FileSystem.
func (fs *FS) SyncDir(dir string) error {
	if err := fs.failSync(); err != nil {
		return err
	}
	return wal.OS.SyncDir(dir)
}

func (fs *FS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs}, nil
}

// failSync counts a sync and returns the scripted failure, if any.
func (fs *FS) failSync() error {
	if kind, hit := fs.next(); hit && (kind == Fail || kind == ShortWrite) {
		return fmt.Errorf("faultinject: fsync failed (op %d)", fs.Ops())
	}
	return nil
}

// file wraps one production segment file with the shared fault counter.
type file struct {
	wal.File
	fs *FS
}

func (w *file) Write(p []byte) (int, error) {
	kind, hit := w.fs.next()
	if !hit {
		return w.File.Write(p)
	}
	switch kind {
	case Fail:
		return 0, fmt.Errorf("faultinject: write failed (op %d)", w.fs.Ops())
	case ShortWrite:
		n, err := w.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultinject: short write %d of %d bytes (op %d)", n, len(p), w.fs.Ops())
	case BitFlip:
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x10
		return w.File.Write(q)
	}
	return w.File.Write(p)
}

func (w *file) Sync() error {
	if err := w.fs.failSync(); err != nil {
		return err
	}
	return w.File.Sync()
}

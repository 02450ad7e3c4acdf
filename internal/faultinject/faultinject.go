// Package faultinject is the scriptable fault layer of the durability
// tests: a wal.FileSystem whose Nth operation fails, short-writes or flips
// a bit. The kill-at-N differential suite scripts it to "crash" a store at
// a chosen write-ahead log operation and then checks that recovery restores
// exactly the acknowledged prefix.
package faultinject

import (
	"fmt"
	"os"
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
	// the torn write a crash mid-write leaves behind. On a sync it degrades
	// to Fail.
	ShortWrite
	// BitFlip silently corrupts one bit of the buffer and reports success —
	// the medium lied. On a sync it is a no-op.
	BitFlip
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case ShortWrite:
		return "short-write"
	case BitFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FS is a wal.FileSystem that counts every Write and Sync across all files
// it has opened (1-based, in call order) and injects the scripted fault
// when the counter hits its operation number.
type FS struct {
	mu     sync.Mutex
	ops    int64
	faults map[int64]Kind
}

// NewFS builds a fault-injecting filesystem. faults maps 1-based operation
// numbers (Writes and Syncs combined, in call order) to the fault to inject.
func NewFS(faults map[int64]Kind) *FS {
	m := make(map[int64]Kind, len(faults))
	for op, k := range faults {
		m[op] = k
	}
	return &FS{faults: m}
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
func (fs *FS) Create(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

// OpenAppend implements wal.FileSystem.
func (fs *FS) OpenAppend(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

// file wraps one real file with the shared fault counter.
type file struct {
	fs *FS
	f  *os.File
}

func (w *file) Write(p []byte) (int, error) {
	kind, hit := w.fs.next()
	if !hit {
		return w.f.Write(p)
	}
	switch kind {
	case Fail:
		return 0, fmt.Errorf("faultinject: write failed (op %d)", w.fs.Ops())
	case ShortWrite:
		n, err := w.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultinject: short write %d of %d bytes (op %d)", n, len(p), w.fs.Ops())
	case BitFlip:
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x10
		return w.f.Write(q)
	}
	return w.f.Write(p)
}

func (w *file) Sync() error {
	kind, hit := w.fs.next()
	if hit && (kind == Fail || kind == ShortWrite) {
		return fmt.Errorf("faultinject: fsync failed (op %d)", w.fs.Ops())
	}
	return w.f.Sync()
}

func (w *file) Close() error { return w.f.Close() }

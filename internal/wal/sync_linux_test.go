package wal_test

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// BenchmarkSyncVariants prices one commit — a record-sized write plus a
// durability barrier — three ways: f.Sync on an appended file (what
// Log.syncLocked does), fdatasync on an appended file, and fdatasync on a
// segment preallocated with written zeros, where a commit changes no file
// size and so no inode metadata. The files live under TMPDIR: point it at
// the WAL's filesystem.
func BenchmarkSyncVariants(b *testing.B) {
	rec := make([]byte, 512)
	for i := range rec {
		rec[i] = byte(i)
	}
	fdatasync := func(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
	appended := func(b *testing.B) *os.File {
		f, err := os.OpenFile(filepath.Join(b.TempDir(), "seg"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { f.Close() })
		return f
	}
	for _, v := range []struct {
		name string
		sync func(*os.File) error
	}{{"sync_append", (*os.File).Sync}, {"fdatasync_append", fdatasync}} {
		b.Run(v.name, func(b *testing.B) {
			f := appended(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Write(rec); err != nil {
					b.Fatal(err)
				}
				if err := v.sync(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fdatasync_prealloc", func(b *testing.B) {
		f, err := os.OpenFile(filepath.Join(b.TempDir(), "seg"), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(make([]byte, b.N*len(rec))); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(rec, int64(i*len(rec))); err != nil {
				b.Fatal(err)
			}
			if err := fdatasync(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

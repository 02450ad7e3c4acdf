package wal

import (
	"os"
	"syscall"
)

const oDirect = syscall.O_DIRECT

// datasync syncs a segment's data and size, not its timestamps.
func datasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

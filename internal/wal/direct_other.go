//go:build !linux

package wal

import "os"

const oDirect = 0 // writes go through the page cache

func datasync(f *os.File) error { return f.Sync() }

package spatialcluster

import (
	"fmt"

	"spatialcluster/internal/snapshot"
	"spatialcluster/internal/store"
)

// The snapshot file format, version 2:
//
//	section 1: magic          "SPCLSNAP\x02"        (9 bytes)
//	section 2: payload length uint64, little-endian (8 bytes)
//	section 3: payload CRC-32 uint32, little-endian (4 bytes, IEEE)
//	section 4: payload        gob-encoded store.Image
//
// The length and checksum exist so that a truncated or corrupted file is
// detected at every section boundary with a descriptive error — never a
// panic, and never a silently wrong store. Version 1 files (no length or
// checksum) are rejected by the magic comparison. The format lives in
// internal/snapshot (on the shared internal/framing discipline the
// write-ahead log reuses); this file wraps it into the public API.

// Save serializes a built organization to a single snapshot file at path:
// the disk's page image plus all in-memory state (allocator free list,
// R*-tree shape, object maps, cluster units, open tail pages). The store is
// flushed first; it remains usable afterwards. A saved store reopens with
// Open without a rebuild, on any backend, with identical StorageStats and
// identical window/point/k-NN answer sets. A WAL-attached store (see
// StoreConfig.WALPath) saves its underlying organization — the snapshot is
// self-contained and does not need the log to reopen.
//
// Saving the same store twice produces byte-identical files: all map-backed
// state is sorted during capture.
func Save(org Organization, path string) error {
	img, err := store.Snapshot(org)
	if err != nil {
		return fmt.Errorf("spatialcluster: Save: %w", err)
	}
	if err := snapshot.Write(path, img); err != nil {
		return fmt.Errorf("spatialcluster: Save: %w", err)
	}
	return nil
}

// Open rebuilds an organization from a snapshot file written by Save,
// without re-running construction and without charging modelled I/O. The
// organization kind, cluster configuration and disk timing parameters come
// from the snapshot; cfg supplies the runtime environment — buffer size and
// policy, and where the restored pages are placed (memory by default, or a
// fresh scratch page file at cfg.Path). cfg.SmaxBytes
// and cfg.BuddySizes are ignored: those are properties of the saved store. With cfg.WALPath a fresh write-ahead log attaches to the
// reopened store, its initial checkpoint being the snapshot's state; to
// reopen an existing WAL directory, which replays mutations past its
// snapshot, use RecoverStore.
//
// A truncated, corrupted or foreign file yields a descriptive error: the
// magic, the length field and a CRC-32 of the payload are verified before
// anything is decoded.
func Open(path string, cfg StoreConfig) (Organization, error) {
	if _, err := cfg.check(); err != nil {
		return nil, err
	}
	img, err := snapshot.Read(path)
	if err != nil {
		return nil, fmt.Errorf("spatialcluster: Open: %w", err)
	}
	env, err := cfg.env(img.Params)
	if err != nil {
		return nil, err
	}
	org, err := store.Restore(img, env)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("spatialcluster: Open %s: %w", path, err)
	}
	return cfg.attachWAL(org)
}

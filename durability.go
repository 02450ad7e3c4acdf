package spatialcluster

import (
	"fmt"

	"spatialcluster/internal/wal"
)

// WALStats is a point-in-time summary of a store's write-ahead log.
type WALStats = wal.Stats

// RecoverInfo reports a crash recovery: the LSN of the checkpoint snapshot
// that seeded the store, how many log records replayed on top of it, and
// whether a torn final record (a crash mid-append) was detected and
// discarded.
type RecoverInfo = wal.RecoverStats

// attachWAL attaches a fresh write-ahead log at WALPath to a built store —
// the one place a log is created — or returns the store unchanged when
// WALPath is empty. On failure the store's environment is closed.
func (c StoreConfig) attachWAL(org Organization) (Organization, error) {
	if c.WALPath == "" {
		return org, nil
	}
	ws, err := wal.Create(org, c.WALPath, wal.Options{})
	if err != nil {
		org.Env().Close()
		return nil, fmt.Errorf("spatialcluster: attaching WAL: %w", err)
	}
	return ws, nil
}

// RecoverStore reopens a crashed or cleanly closed WAL-attached store from
// cfg.WALPath: the newest checkpoint snapshot loads and the log tail replays
// on top of it, restoring exactly the acknowledged mutations (plus, possibly,
// logged-but-unacknowledged ones whose records happen to be intact). A torn
// final record — the signature of a crash mid-append — is detected, reported
// in RecoverInfo and discarded. The returned organization carries the log
// onward; close it with CloseStore.
func RecoverStore(cfg StoreConfig) (Organization, RecoverInfo, error) {
	if cfg.WALPath == "" {
		return nil, RecoverInfo{}, configError("the config has no WALPath")
	}
	if _, err := cfg.check(); err != nil {
		return nil, RecoverInfo{}, err
	}
	ws, st, err := wal.Recover(cfg.WALPath, cfg.env, wal.Options{})
	if err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("spatialcluster: recovering %s: %w", cfg.WALPath, err)
	}
	return ws, st, nil
}

// StoreWALStats reports the write-ahead log of a WAL-attached store (zero
// stats and false for stores built without WALPath).
func StoreWALStats(org Organization) (WALStats, bool) {
	ws, ok := org.(*wal.Store)
	if !ok {
		return WALStats{}, false
	}
	return ws.Log().Stats(), true
}

// CheckpointStore writes a fresh checkpoint snapshot of a WAL-attached store
// and retires the log segments it covers, bounding recovery time. Stores
// built without WALPath are a no-op. Checkpoints also run automatically once
// the log exceeds its size threshold.
func CheckpointStore(org Organization) error {
	ws, ok := org.(*wal.Store)
	if !ok {
		return nil
	}
	return ws.Checkpoint()
}

package wal_test

import (
	"testing"

	sc "spatialcluster"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/wal"
)

// BenchmarkLogAppend prices one strict commit — Log.Append of one 512-byte
// framed record, written and synced before it returns — on the production
// file type. The log lives under TMPDIR: point it at the filesystem to
// measure.
func BenchmarkLogAppend(b *testing.B) {
	org, err := sc.NewStore("cluster", sc.StoreConfig{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := wal.Create(org, b.TempDir(), wal.Options{SyncEvery: 1, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ws.Close()
	log := ws.Log()
	insert := func(pad int) wal.Record {
		o := object.New(1, geom.NewPolyline([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.51, 0.51)}), pad)
		return wal.Record{Kind: wal.KindInsert, Obj: o, Key: o.Bounds()}
	}
	// Size the object's pad so that its framed insert record is 512 bytes.
	before := log.Stats().Bytes
	if err := log.Append(insert(0)); err != nil {
		b.Fatal(err)
	}
	rec := insert(512 - int(log.Stats().Bytes-before))
	before = log.Stats().Bytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := (log.Stats().Bytes - before) / int64(b.N); got != 512 {
		b.Fatalf("%d bytes per commit, want 512", got)
	}
}

package buffer

import (
	"math/rand"
	"testing"

	"spatialcluster/internal/disk"
)

// The shape of the benchmark's engine_read store: a 256-page buffer over a
// disk 22 times its size.
const (
	benchCapacity = 256
	benchPages    = 5654
)

func newBenchBuffer(b *testing.B) *Manager {
	b.Helper()
	d := disk.NewDefault()
	d.Grow(benchPages)
	for id := disk.PageID(0); id < benchPages; id++ {
		d.Poke(id, []byte{byte(id)})
	}
	return New(d, benchCapacity)
}

var benchSink []byte

// BenchmarkManager times the buffer alone: a hit (Get of a resident page), a
// miss that evicts the LRU frame (a cyclic scan longer than the buffer, so
// every Get misses), and one Missing call over 128 pages of which half are
// resident.
func BenchmarkManager(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		m := newBenchBuffer(b)
		for id := disk.PageID(0); id < benchCapacity; id++ {
			m.Get(id)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = m.Get(disk.PageID(i % benchCapacity))
		}
	})
	b.Run("miss_evict", func(b *testing.B) {
		m := newBenchBuffer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = m.Get(disk.PageID(i % benchPages))
		}
	})
	b.Run("missing128", func(b *testing.B) {
		m := newBenchBuffer(b)
		pages := make([]disk.PageID, 128)
		for i := range pages {
			pages[i] = disk.PageID(i)
			if i%2 == 0 {
				m.Get(pages[i])
			}
		}
		missing := make([]disk.PageID, 0, len(pages))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			missing = m.Missing(pages, missing, nil)
		}
	})
}

// BenchmarkManagerParallel shares one buffer between GOMAXPROCS readers
// (run it with -cpu 1,2,4): nine Gets in ten go to a hot set that fits the
// buffer, the tenth to a random page that misses and evicts.
func BenchmarkManagerParallel(b *testing.B) {
	m := newBenchBuffer(b)
	const hot = benchCapacity * 3 / 4
	for id := disk.PageID(0); id < hot; id++ {
		m.Get(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			id := disk.PageID(rng.Intn(hot))
			if rng.Intn(10) == 0 {
				id = disk.PageID(hot + rng.Intn(benchPages-hot))
			}
			m.Get(id)
		}
	})
}

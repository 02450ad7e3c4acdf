package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spatialcluster/internal/disk"
)

// --- pinning semantics ---

func TestPinExemptsFromEviction(t *testing.T) {
	d := newDiskWithPages(t, 16)
	m := New(d, 3)
	m.Get(0)
	m.Get(1)
	m.Get(2)
	if !m.Pin(0) {
		t.Fatal("Pin(0) on a resident page must succeed")
	}
	// Page 0 is the LRU victim but pinned: the next two inserts must evict
	// pages 1 and 2 instead.
	m.Get(3)
	m.Get(4)
	if !m.Contains(0) {
		t.Fatal("pinned page 0 was evicted")
	}
	if m.Contains(1) || m.Contains(2) {
		t.Fatal("unpinned pages should have been evicted before overflow")
	}
	m.Unpin(0)
	// Unpinned and oldest again: the next insert evicts it.
	m.Get(5)
	if m.Contains(0) {
		t.Fatal("unpinned page 0 should be evictable again")
	}
}

func TestPinOverflowsCapacityWhenAllPinned(t *testing.T) {
	d := newDiskWithPages(t, 16)
	m := New(d, 2)
	m.Get(0)
	m.Get(1)
	m.Pin(0)
	m.Pin(1)
	m.Get(2) // nothing evictable: the buffer must grow, not fail
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (overflow while pinned)", m.Len())
	}
	m.Unpin(0)
	m.Unpin(1)
	// The overflow drains through normal eviction: inserting one more page
	// evicts down to capacity before admitting.
	m.Get(3)
	if m.Len() > 2 {
		t.Fatalf("Len = %d after pins released, want <= capacity 2", m.Len())
	}
}

func TestPinNestsAndMissingPin(t *testing.T) {
	d := newDiskWithPages(t, 8)
	m := New(d, 2)
	if m.Pin(7) {
		t.Fatal("Pin of a non-resident page must report false")
	}
	m.Get(1)
	m.Pin(1)
	m.Pin(1)
	m.Unpin(1)
	m.Get(2)
	m.Get(3) // 1 still pinned once: must survive both inserts
	if !m.Contains(1) {
		t.Fatal("page with one remaining pin was evicted")
	}
	m.Unpin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Unpin must panic")
		}
	}()
	m.Unpin(1)
}

func TestPinnedDirtyPageSurvivesFlush(t *testing.T) {
	d := newDiskWithPages(t, 8)
	m := New(d, 4)
	m.Put(3, []byte("dirty"))
	m.Pin(3)
	m.Flush() // write-back must not require evicting the pinned frame
	if got := d.Peek(3); !bytes.Equal(got, []byte("dirty")) {
		t.Fatalf("flushed content = %q", got)
	}
	if !m.Contains(3) {
		t.Fatal("pinned page dropped by Flush")
	}
	m.Unpin(3)
}

func TestPeekDoesNotPromote(t *testing.T) {
	d := newDiskWithPages(t, 8)
	m := New(d, 2)
	m.Get(0)
	m.Get(1)
	if data, ok := m.Peek(0); !ok || !bytes.Equal(data, []byte{0}) {
		t.Fatalf("Peek(0) = %v, %v", data, ok)
	}
	// Peek must not have promoted page 0: it is still the LRU victim.
	m.Get(2)
	if m.Contains(0) {
		t.Fatal("Peek promoted page 0")
	}
	if _, ok := m.Peek(0); ok {
		t.Fatal("Peek of an evicted page must miss")
	}
}

// --- -race stress tests ---

// TestConcurrentReadStress hammers the read path (Get/Touch/Peek/Missing/
// ExecutePlan/Pin/Unpin) from many goroutines sharing one buffer. Run under
// -race this validates the latching; the final check validates that
// no content was ever corrupted.
func TestConcurrentReadStress(t *testing.T) {
	const pages = 256
	d := disk.NewDefault()
	d.Grow(pages)
	for i := 0; i < pages; i++ {
		d.Poke(disk.PageID(i), []byte{byte(i), byte(i >> 4)})
	}
	m := New(d, 32)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				id := disk.PageID(rng.Intn(pages))
				switch rng.Intn(6) {
				case 0:
					if got := m.Get(id); !bytes.Equal(got, []byte{byte(id), byte(id >> 4)}) {
						panic(fmt.Sprintf("corrupt page %d: %v", id, got))
					}
				case 1:
					if data, ok := m.Touch(id); ok && data[0] != byte(id) {
						panic("corrupt touch")
					}
				case 2:
					if data, ok := m.Peek(id); ok && data[0] != byte(id) {
						panic("corrupt peek")
					}
				case 3:
					if m.Pin(id) {
						if data, ok := m.Peek(id); !ok || data[0] != byte(id) {
							panic("pinned page missing or corrupt")
						}
						m.Unpin(id)
					}
				case 4:
					ids := []disk.PageID{id, id + 1, id}
					if id+2 < pages {
						missing := m.Missing(ids, nil, nil)
						if len(missing) > 0 {
							m.ExecutePlan(disk.PlanRequired(nil, missing), ids, rng.Intn(2) == 0, nil, nil)
						}
					}
				case 5:
					m.Contains(id)
				}
			}
		}(int64(g))
	}
	wg.Wait()

	if m.Len() > m.Capacity() {
		t.Fatalf("buffer over capacity with no pins outstanding: %d > %d", m.Len(), m.Capacity())
	}
	for i := 0; i < pages; i++ {
		if data, ok := m.Peek(disk.PageID(i)); ok && !bytes.Equal(data, []byte{byte(i), byte(i >> 4)}) {
			t.Fatalf("page %d corrupted: %v", i, data)
		}
	}
}

// TestConcurrentReadersWithWriter mixes concurrent readers with a writer
// doing Put/Flush on a disjoint page range, the pattern of a construction
// thread sharing the disk with query threads. Content integrity is checked
// at the end.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const readPages, writePages = 128, 64
	d := disk.NewDefault()
	d.Grow(readPages + writePages)
	for i := 0; i < readPages; i++ {
		d.Poke(disk.PageID(i), []byte{byte(i)})
	}
	m := New(d, 48)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := disk.PageID(rng.Intn(readPages))
				if got := m.Get(id); got[0] != byte(id) {
					panic("corrupt read")
				}
			}
		}(int64(g + 100))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			id := disk.PageID(readPages + rng.Intn(writePages))
			m.Put(id, []byte{0xAA, byte(id)})
			if i%97 == 0 {
				m.Flush()
			}
		}
	}()
	wg.Wait()
	m.Flush()

	for i := 0; i < readPages; i++ {
		if data := d.Peek(disk.PageID(i)); !bytes.Equal(data, []byte{byte(i)}) {
			t.Fatalf("read page %d corrupted on disk: %v", i, data)
		}
	}
	for i := readPages; i < readPages+writePages; i++ {
		data := d.Peek(disk.PageID(i))
		if data != nil && !bytes.Equal(data, []byte{0xAA, byte(i)}) {
			t.Fatalf("written page %d corrupted: %v", i, data)
		}
	}
}

// TestConcurrentInsertWhileAllPinned races concurrent Gets of the same
// missing page while every resident frame is pinned (the overflow path):
// the insert must re-check for the racing frame after eviction fails, or a
// duplicate frame corrupts the LRU list and the size counter.
func TestConcurrentInsertWhileAllPinned(t *testing.T) {
	const pages = 32
	d := disk.NewDefault()
	d.Grow(pages)
	for i := 0; i < pages; i++ {
		d.Poke(disk.PageID(i), []byte{byte(i)})
	}
	for round := 0; round < 50; round++ {
		m := New(d, 2)
		m.Get(0)
		m.Get(1)
		m.Pin(0)
		m.Pin(1)
		target := disk.PageID(2 + round%29) // target+1 stays on the disk
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := m.Get(target); got[0] != byte(target) {
					panic("corrupt overflow read")
				}
			}()
		}
		wg.Wait()
		if m.Len() != 3 {
			t.Fatalf("round %d: Len = %d, want 3 (one overflow frame, no duplicates)", round, m.Len())
		}
		m.Unpin(0)
		m.Unpin(1)
		m.Get(target + 1) // overflow must drain through normal eviction
		if m.Len() > 2 {
			t.Fatalf("round %d: Len = %d after unpin, want <= capacity", round, m.Len())
		}
	}
}

// TestConcurrentEvictionUnderPin races pinners against eviction pressure:
// a page pinned at check time must be resident with intact content.
func TestConcurrentEvictionUnderPin(t *testing.T) {
	const pages = 64
	d := disk.NewDefault()
	d.Grow(pages)
	for i := 0; i < pages; i++ {
		d.Poke(disk.PageID(i), []byte{byte(i)})
	}
	m := New(d, 8) // tight: constant eviction pressure

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := disk.PageID(rng.Intn(pages))
				m.Get(id)
				if m.Pin(id) {
					// While pinned the page must stay resident even though
					// other goroutines evict aggressively.
					for k := 0; k < 3; k++ {
						data, ok := m.Peek(id)
						if !ok {
							panic(fmt.Sprintf("pinned page %d evicted", id))
						}
						if data[0] != byte(id) {
							panic("pinned page corrupted")
						}
					}
					m.Unpin(id)
				}
			}
		}(int64(g + 40))
	}
	wg.Wait()
}

package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spatialcluster/internal/disk"
)

const propPages = 512

func newPolicyBuf(capacity int, p Policy) *Manager {
	d := disk.NewDefault()
	d.Grow(propPages)
	for id := 0; id < propPages; id += 64 {
		data := make([][]byte, 64)
		for j := range data {
			pg := make([]byte, 8)
			pg[0] = byte(id + j)
			data[j] = pg
		}
		d.WriteRun(disk.PageID(id), data, nil)
	}
	return NewWithPolicy(d, capacity, p)
}

// runStream drives m through a deterministic random op stream and checks the
// buffer invariants after every step. It returns a digest of the final state.
func runStream(t *testing.T, m *Manager, seed int64, ops int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pinned := map[disk.PageID]int{}
	page := func() disk.PageID {
		if rng.Intn(2) == 0 {
			return disk.PageID(rng.Intn(32)) // hot set
		}
		return disk.PageID(rng.Intn(propPages))
	}
	for i := 0; i < ops; i++ {
		id := page()
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			m.Get(id)
		case 4, 5:
			m.Put(id, []byte{byte(id), 0xff})
		case 6:
			if m.Pin(id) {
				pinned[id]++
			}
		case 7:
			if pinned[id] > 0 {
				m.Unpin(id)
				if pinned[id]--; pinned[id] == 0 {
					delete(pinned, id)
				}
			}
		case 8:
			if pinned[id] == 0 {
				m.Drop(id)
			}
		case 9:
			if rng.Intn(20) == 0 {
				m.Flush()
			} else {
				m.Touch(id)
			}
		}

		// Invariants: pinned frames stay resident, the ghost lists stay
		// within their bound, probationers are a subset of the frames.
		for id := range pinned {
			if !m.Contains(id) {
				t.Fatalf("op %d: pinned page %d was evicted", i, id)
			}
		}
		if g, cap := m.GhostLen(), m.GhostCapacity(); g > cap {
			t.Fatalf("op %d: ghost list holds %d entries, bound %d", i, g, cap)
		}
		if a1, n := m.ProbationLen(), m.Len(); a1 < 0 || a1 > n {
			t.Fatalf("op %d: probation queue %d of %d frames", i, a1, n)
		}
	}
	for id, n := range pinned {
		for j := 0; j < n; j++ {
			m.Unpin(id)
		}
	}
	st := m.Stats()
	return fmt.Sprintf("len=%d a1=%d ghost=%d hits=%d misses=%d evictions=%d flushed=%d cost=%+v",
		m.Len(), m.ProbationLen(), m.GhostLen(), st.Hits, st.Misses, st.Evictions, st.Flushed,
		m.Disk().Cost())
}

// TestPolicyPropertyStream runs randomized op streams against both policies:
// invariants hold at every step and equal seeds yield identical behavior.
func TestPolicyPropertyStream(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, Policy2Q} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", policy, seed), func(t *testing.T) {
				a := runStream(t, newPolicyBuf(48, policy), seed, 4000)
				b := runStream(t, newPolicyBuf(48, policy), seed, 4000)
				if a != b {
					t.Fatalf("same seed, different behavior:\n%s\n%s", a, b)
				}
			})
		}
	}
}

// TestPolicyAllPinnedOverflow pins more pages than the capacity: inserts must
// overflow rather than fail or evict a pinned frame, for both policies.
func TestPolicyAllPinnedOverflow(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, Policy2Q} {
		m := newPolicyBuf(8, policy)
		for id := disk.PageID(0); id < 12; id++ {
			m.Get(id)
			if !m.Pin(id) {
				t.Fatalf("%v: page %d not resident right after Get", policy, id)
			}
		}
		if m.Len() < 12 {
			t.Fatalf("%v: %d frames buffered, want overflow to 12", policy, m.Len())
		}
		for id := disk.PageID(0); id < 12; id++ {
			if _, ok := m.Peek(id); !ok {
				t.Fatalf("%v: pinned page %d missing", policy, id)
			}
			m.Unpin(id)
		}
	}
}

// TestPolicyConcurrentInvariants hammers a 2Q buffer from many goroutines
// (run under -race): pinned pages stay resident for the pin's duration and
// the ghost bound holds throughout.
func TestPolicyConcurrentInvariants(t *testing.T) {
	m := newPolicyBuf(32, Policy2Q)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := disk.PageID(rng.Intn(propPages))
				switch rng.Intn(4) {
				case 0:
					m.Get(id)
				case 1:
					m.Put(id, []byte{byte(id)})
				case 2:
					m.Get(id)
					if m.Pin(id) {
						if _, ok := m.Peek(id); !ok {
							t.Errorf("worker %d: pinned page %d not resident", w, id)
						}
						m.Unpin(id)
					}
				case 3:
					m.Touch(id)
				}
				if g, cap := m.GhostLen(), m.GhostCapacity(); g > cap {
					t.Errorf("worker %d: ghost list %d over bound %d", w, g, cap)
				}
			}
		}(w)
	}
	wg.Wait()
	m.Flush()
}

// TestScanResistance interleaves a hot working set with long sequential
// scans: 2Q must keep the hot set resident and beat LRU's hit ratio.
func TestScanResistance(t *testing.T) {
	ratio := func(policy Policy) float64 {
		m := newPolicyBuf(64, policy)
		hot := 24
		// Warm the hot set past probation (2Q needs the re-reference).
		for round := 0; round < 3; round++ {
			for id := 0; id < hot; id++ {
				m.Get(disk.PageID(id))
			}
		}
		m.ResetStats()
		next := hot
		for round := 0; round < 40; round++ {
			for id := 0; id < hot; id++ {
				m.Get(disk.PageID(id))
			}
			// A scan of one-touch pages, longer than the buffer.
			for j := 0; j < 96; j++ {
				m.Get(disk.PageID(hot + (next+j)%(propPages-hot)))
			}
			next += 96
		}
		st := m.Stats()
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	lru, twoQ := ratio(PolicyLRU), ratio(Policy2Q)
	t.Logf("hit ratio: lru %.3f, 2q %.3f", lru, twoQ)
	if twoQ <= lru {
		t.Fatalf("2Q hit ratio %.3f not above LRU %.3f on a scan-heavy stream", twoQ, lru)
	}
}

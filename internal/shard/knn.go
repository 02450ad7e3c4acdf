package shard

import "math"

// The k-NN scatter-gather merge. Each shard answers a k-NN query with its
// own top k (exact distances, ties by ID — the store's order); the router
// merges them into the global top k with the same monotone stop the
// best-first leaf traversal uses: once the accumulator is full, a shard
// whose distance lower bound strictly exceeds the k-th global distance
// cannot contribute, while a shard tied with the bound still can. Because a
// queried shard always returns its full k, its contribution is complete —
// no re-query is ever needed: any object the shard withheld is preceded by
// k closer-or-equal objects that were offered to the merger.

// Neighbor is one merged k-NN answer entry.
type Neighbor struct {
	ID   uint64
	Dist float64
}

// KNNMerger accumulates per-shard k-NN answers into the global top k,
// ordered by (distance, ID) exactly like the single-store answer. The zero
// value merges the top 0; Reset readies it for another query.
type KNNMerger struct {
	k     int
	items []Neighbor
}

// Reset empties the merger for the global top k, keeping its storage.
func (m *KNNMerger) Reset(k int) {
	m.k = max(k, 0)
	m.items = m.items[:0]
}

// Add offers one neighbor. Shards own disjoint objects except while a
// cross-shard move holds an ID on two of them; the merger keeps only the
// closer entry rather than answering with a duplicate.
func (m *KNNMerger) Add(id uint64, dist float64) {
	if m.k == 0 {
		return
	}
	for i, it := range m.items {
		if it.ID == id {
			if less(dist, id, it.Dist, it.ID) {
				m.items = append(m.items[:i], m.items[i+1:]...)
				break
			}
			return
		}
	}
	pos := len(m.items)
	for pos > 0 && less(dist, id, m.items[pos-1].Dist, m.items[pos-1].ID) {
		pos--
	}
	if pos == m.k {
		return
	}
	m.items = append(m.items, Neighbor{})
	copy(m.items[pos+1:], m.items[pos:])
	m.items[pos] = Neighbor{ID: id, Dist: dist}
	if len(m.items) > m.k {
		m.items = m.items[:m.k]
	}
}

func less(d1 float64, id1 uint64, d2 float64, id2 uint64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

// Full reports whether the merger holds k entries.
func (m *KNNMerger) Full() bool { return len(m.items) == m.k }

// Bound returns the k-th global distance, or +Inf while the merger is not
// yet full — the cut against which shard lower bounds are compared.
func (m *KNNMerger) Bound() float64 {
	if !m.Full() || m.k == 0 {
		return math.Inf(1)
	}
	return m.items[len(m.items)-1].Dist
}

// Neighbors returns the merged answer in (distance, ID) order — the merger's
// own slice, valid until the next Add.
func (m *KNNMerger) Neighbors() []Neighbor { return m.items }

// NextWave plans the next round of shard queries: among the shards not yet
// queried and not provably incapable (prune only when the merger is full AND
// the shard's bound strictly exceeds the global bound — ties survive, as in
// the leaf traversal), it appends to dst those tied at the minimum bound.
// Querying wave by wave visits shards in best-first bound order and stops as
// soon as the remaining bounds prove completeness: it appends nothing then.
func NextWave(dst []int, dists []float64, queried []bool, m *KNNMerger) []int {
	best := math.Inf(1)
	for i, d := range dists {
		if queried[i] {
			continue
		}
		if m.Full() && d > m.Bound() {
			continue
		}
		if d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return dst
	}
	for i, d := range dists {
		if !queried[i] && d == best {
			dst = append(dst, i)
		}
	}
	return dst
}

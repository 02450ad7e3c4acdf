package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"spatialcluster/internal/geom"
)

func randKeys(rng *rand.Rand, n int, maxHalf float64) []geom.Rect {
	keys := make([]geom.Rect, n)
	for i := range keys {
		cx, cy := rng.Float64(), rng.Float64()
		hx, hy := rng.Float64()*maxHalf, rng.Float64()*maxHalf
		keys[i] = geom.R(cx-hx, cy-hy, cx+hx, cy+hy)
	}
	return keys
}

func TestUniformPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		m := Uniform(n)
		if m.N() != n {
			t.Fatalf("Uniform(%d).N() = %d", n, m.N())
		}
		var prev uint64
		for i := 0; i < n; i++ {
			lo, hi := m.Range(i)
			if lo != prev || hi < lo {
				t.Fatalf("Uniform(%d) shard %d: range [%d,%d) after %d", n, i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != geom.HilbertRange {
			t.Fatalf("Uniform(%d) ends at %d", n, prev)
		}
	}
}

func TestShardOfIndexMatchesRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := FromKeys(randKeys(rng, 500, 0.02), 5)
	for trial := 0; trial < 2000; trial++ {
		d := rng.Uint64() % geom.HilbertRange
		s := m.ShardOfIndex(d)
		lo, hi := m.Range(s)
		if d < lo || d >= hi {
			t.Fatalf("index %d -> shard %d owning [%d,%d)", d, s, lo, hi)
		}
	}
}

func TestFromKeysBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randKeys(rng, 4000, 0.01)
	m := FromKeys(keys, 4)
	for i, c := range m.Counts(keys) {
		if c < 500 || c > 1500 {
			t.Fatalf("shard %d holds %d of 4000 keys — quantile split badly unbalanced", i, c)
		}
	}
	// Deterministic: shuffled keys give the identical partition.
	shuffled := append([]geom.Rect(nil), keys...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if FromKeys(shuffled, 4).String() != m.String() {
		t.Fatal("FromKeys depends on key order")
	}
}

// TestRangesRoundTrip: String renders every shard's Range, in shard order —
// the text sdbrouter's -shards flag parses back.
func TestRangesRoundTrip(t *testing.T) {
	m := FromKeys(randKeys(rand.New(rand.NewSource(3)), 300, 0.02), 6)
	parts := strings.Split(m.String(), ",")
	if len(parts) != m.N() {
		t.Fatalf("%q names %d ranges for %d shards", m.String(), len(parts), m.N())
	}
	for i, part := range parts {
		if lo, hi := m.Range(i); part != fmt.Sprintf("%d-%d", lo, hi) {
			t.Fatalf("%q: shard %d renders as %q, its range is [%d,%d)", m.String(), i, part, lo, hi)
		}
	}
}

func TestFromRangesValidation(t *testing.T) {
	full := geom.HilbertRange
	cases := []struct {
		name   string
		ranges [][2]uint64
	}{
		{"empty", nil},
		{"bad start", [][2]uint64{{1, full}}},
		{"bad end", [][2]uint64{{0, full - 1}}},
		{"inverted", [][2]uint64{{0, 10}, {20, 10}, {10, full}}},
		{"overlap", [][2]uint64{{0, 100}, {50, full}}},
		{"gap", [][2]uint64{{0, 100}, {200, full}}},
	}
	for _, tc := range cases {
		if _, err := FromRanges(tc.ranges); err == nil {
			t.Errorf("%s: FromRanges accepted %v", tc.name, tc.ranges)
		}
	}
	if _, err := FromRanges([][2]uint64{{0, 100}, {100, 100}, {100, full}}); err != nil {
		t.Errorf("empty middle shard rejected: %v", err)
	}
}

// TestOverlappingCovers is the routing soundness property: every object
// intersecting a window is owned by one of the shards Overlapping returns.
func TestOverlappingCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8} {
		keys := randKeys(rng, 600, 0.03)
		m := FromKeys(keys, n)
		for trial := 0; trial < 200; trial++ {
			w := geom.R(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1,
				rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
			shards := m.Overlapping(w)
			in := make(map[int]bool, len(shards))
			for _, s := range shards {
				in[s] = true
			}
			for _, k := range keys {
				if k.Intersects(w) && !in[m.ShardOfKey(k)] {
					t.Fatalf("n=%d: key %v intersects %v but shard %d not in %v",
						n, k, w, m.ShardOfKey(k), shards)
				}
			}
		}
	}
}

func TestOverlappingEdges(t *testing.T) {
	m := FromKeys(randKeys(rand.New(rand.NewSource(5)), 400, 0.02), 4)
	if got := m.Overlapping(geom.EmptyRect()); got != nil {
		t.Fatalf("empty window overlaps %v", got)
	}
	// The full square overlaps every non-empty shard region; with 4
	// quantile shards of 400 keys none is empty.
	if got := m.Overlapping(geom.R(0, 0, 1, 1)); len(got) != 4 {
		t.Fatalf("unit window overlaps %v, want all 4", got)
	}
	// A window farther from the unit square than the pad can cover no
	// object center: it overlaps zero shards.
	if got := m.Overlapping(geom.R(2, 2, 3, 3)); len(got) != 0 {
		t.Fatalf("far window overlaps %v, want none", got)
	}
	// A window just outside the square but within pad reach still hits the
	// boundary shards.
	px, _ := m.Pad()
	if got := m.Overlapping(geom.R(1+px/2, 0.4, 1.5, 0.6)); len(got) == 0 {
		t.Fatal("near-boundary window overlaps no shard; boundary keys could be missed")
	}
}

// TestShardDistsLowerBound: a shard's bound never exceeds the distance from
// the query point to any key the shard owns.
func TestShardDistsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 3, 8} {
		keys := randKeys(rng, 500, 0.03)
		m := FromKeys(keys, n)
		for trial := 0; trial < 100; trial++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			dists := m.ShardDists(nil, p)
			if len(dists) != n {
				t.Fatalf("n=%d: %d bounds", n, len(dists))
			}
			for _, k := range keys {
				s := m.ShardOfKey(k)
				if d := k.MinDist(p); dists[s] > d+1e-12 {
					t.Fatalf("n=%d: shard %d bound %g > dist %g to key %v",
						n, s, dists[s], d, k)
				}
			}
		}
	}
}

func TestShardDistsEmptyShard(t *testing.T) {
	// A zero-width range owns no cell: its bound stays +Inf.
	m, err := FromRanges([][2]uint64{{0, 100}, {100, 100}, {100, geom.HilbertRange}})
	if err != nil {
		t.Fatal(err)
	}
	dists := m.ShardDists(nil, geom.Pt(0.5, 0.5))
	if !math.IsInf(dists[1], 1) {
		t.Fatalf("empty shard bound = %g, want +Inf", dists[1])
	}
	if math.IsInf(dists[0], 1) || math.IsInf(dists[2], 1) {
		t.Fatalf("non-empty shard bounds = %v", dists)
	}
}

func TestKNNMergerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type obj struct {
		id   uint64
		dist float64
	}
	objs := make([]obj, 60)
	for i := range objs {
		// Coarse distances force (dist, ID) ties.
		objs[i] = obj{id: uint64(i), dist: float64(rng.Intn(10)) / 10}
	}
	var m KNNMerger
	m.Reset(12)
	for _, o := range objs {
		m.Add(o.id, o.dist)
	}
	sort.Slice(objs, func(a, b int) bool {
		if objs[a].dist != objs[b].dist {
			return objs[a].dist < objs[b].dist
		}
		return objs[a].id < objs[b].id
	})
	got := m.Neighbors()
	if len(got) != 12 {
		t.Fatalf("merged %d, want 12", len(got))
	}
	for i, nb := range got {
		if nb.ID != objs[i].id || nb.Dist != objs[i].dist {
			t.Fatalf("rank %d: got (%d,%g), want (%d,%g)",
				i, nb.ID, nb.Dist, objs[i].id, objs[i].dist)
		}
	}
	if m.Bound() != objs[11].dist {
		t.Fatalf("bound %g, want %g", m.Bound(), objs[11].dist)
	}
}

func TestKNNMergerDuplicateID(t *testing.T) {
	var m KNNMerger
	m.Reset(3)
	m.Add(7, 0.5)
	m.Add(7, 0.2) // closer duplicate wins
	m.Add(7, 0.9) // farther duplicate ignored
	m.Add(1, 0.3)
	got := m.Neighbors()
	if len(got) != 2 || got[0].ID != 7 || got[0].Dist != 0.2 || got[1].ID != 1 {
		t.Fatalf("got %v", got)
	}
}

// TestKNNWaveSimulation runs the full scatter-gather protocol in-process
// against a brute-force global answer, including boundary ties. One merger,
// one bounds slice and one wave slice serve every query, as a pooled router
// fan-out state does, and k varies so a query follows one with a larger k.
func TestKNNWaveSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type obj struct {
		id uint64
		pt geom.Point
	}
	var merger KNNMerger
	var bounds []float64
	var wave []int
	for _, n := range []int{1, 2, 4, 8} {
		objs := make([]obj, 300)
		keys := make([]geom.Rect, len(objs))
		for i := range objs {
			// Snap to a coarse grid so exact distance ties happen often,
			// including across shard boundaries.
			objs[i] = obj{id: uint64(i + 1),
				pt: geom.Pt(float64(rng.Intn(20))/20, float64(rng.Intn(20))/20)}
			keys[i] = geom.RectFromPoint(objs[i].pt)
		}
		m := FromKeys(keys, n)
		perShard := make([][]obj, n)
		for i, o := range objs {
			s := m.ShardOfKey(keys[i])
			perShard[s] = append(perShard[s], o)
		}
		for trial := 0; trial < 50; trial++ {
			p := geom.Pt(float64(rng.Intn(40))/40, float64(rng.Intn(40))/40)
			k := []int{10, 25, 3}[trial%3]
			// Global brute-force answer.
			want := append([]obj(nil), objs...)
			sort.Slice(want, func(a, b int) bool {
				da, db := want[a].pt.Dist(p), want[b].pt.Dist(p)
				if da != db {
					return da < db
				}
				return want[a].id < want[b].id
			})
			want = want[:k]
			// Scatter-gather protocol.
			bounds = m.ShardDists(bounds[:0], p)
			queried := make([]bool, n)
			merger.Reset(k)
			waves := 0
			for wave = NextWave(wave[:0], bounds, queried, &merger); len(wave) > 0; wave = NextWave(wave[:0], bounds, queried, &merger) {
				waves++
				if waves > n+1 {
					t.Fatalf("n=%d: wave loop did not terminate", n)
				}
				for _, s := range wave {
					queried[s] = true
					// The shard answers with its local top k.
					local := append([]obj(nil), perShard[s]...)
					sort.Slice(local, func(a, b int) bool {
						da, db := local[a].pt.Dist(p), local[b].pt.Dist(p)
						if da != db {
							return da < db
						}
						return local[a].id < local[b].id
					})
					if len(local) > k {
						local = local[:k]
					}
					for _, o := range local {
						merger.Add(o.id, o.pt.Dist(p))
					}
				}
			}
			got := merger.Neighbors()
			if len(got) != k {
				t.Fatalf("n=%d: merged %d, want %d", n, len(got), k)
			}
			for i, nb := range got {
				if nb.ID != want[i].id {
					t.Fatalf("n=%d trial %d rank %d: got %d, want %d",
						n, trial, i, nb.ID, want[i].id)
				}
			}
		}
	}
}

// refOverlapping, refShardDists and refNextWave are the allocating forms
// the appending ones replaced, kept as their references.
func refOverlapping(m *Map, w geom.Rect) []int {
	if w.IsEmpty() {
		return nil
	}
	q, ok := m.expand(w)
	if !ok {
		return nil
	}
	hit := make([]bool, m.N())
	m.overlapDescend(0, 0, geom.HilbertSide, q, hit)
	out := make([]int, 0, len(hit))
	for i, h := range hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}

func refShardDists(m *Map, p geom.Point) []float64 {
	dists := make([]float64, m.N())
	for i := range dists {
		dists[i] = math.Inf(1)
	}
	px, py := m.Pad()
	m.distDescend(0, 0, geom.HilbertSide, p, px, py, dists)
	return dists
}

func refNextWave(dists []float64, queried []bool, m *KNNMerger) []int {
	best := math.Inf(1)
	for i, d := range dists {
		if !queried[i] && !(m.Full() && d > m.Bound()) && d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return nil
	}
	var wave []int
	for i, d := range dists {
		if !queried[i] && d == best {
			wave = append(wave, i)
		}
	}
	return wave
}

// prefixed returns a slice holding a random prefix of marker values with
// random spare capacity, and the prefix alone.
func prefixed[T any](rng *rand.Rand, marker T) (dst, prefix []T) {
	prefix = make([]T, rng.Intn(4))
	for i := range prefix {
		prefix[i] = marker
	}
	return append(make([]T, 0, rng.Intn(12)), prefix...), prefix
}

// TestAppendOverlapping: AppendOverlapping(dst, w) equals
// append(dst, Overlapping(w)...), Overlapping answers what the allocating
// form did, and dst's prefix is untouched — past 64 shards too, where the hit
// flags no longer fit on the stack.
func TestAppendOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 8, 64, 70} {
		m := FromKeys(randKeys(rng, 900, 0.03), n)
		for trial := 0; trial < 300; trial++ {
			w := geom.R(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1,
				rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
			if trial%50 == 0 {
				w = geom.EmptyRect()
			}
			ref := refOverlapping(m, w)
			if got := m.Overlapping(w); !slices.Equal(got, ref) || (got == nil) != (ref == nil) {
				t.Fatalf("n=%d: Overlapping(%v) = %v, the allocating form %v", n, w, got, ref)
			}
			dst, prefix := prefixed(rng, -1)
			want := append(slices.Clone(dst), ref...)
			got := m.AppendOverlapping(dst, w)
			if !slices.Equal(got, want) || !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("n=%d: AppendOverlapping(%v, %v) = %v, want %v", n, prefix, w, got, want)
			}
		}
	}
}

// TestAppendingShardDistsAndNextWave: ShardDists and NextWave append to dst
// the values their allocating forms returned, dst's prefix untouched, at
// every wave of a protocol run.
func TestAppendingShardDistsAndNextWave(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 8} {
		m := FromKeys(randKeys(rng, 500, 0.03), n)
		for trial := 0; trial < 100; trial++ {
			p := geom.Pt(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
			ref := refShardDists(m, p)
			dst, prefix := prefixed(rng, -1.0)
			bounds := m.ShardDists(dst, p)
			if !slices.Equal(bounds[:len(prefix)], prefix) || !slices.Equal(bounds[len(prefix):], ref) {
				t.Fatalf("n=%d: ShardDists(%v, %v) = %v, want the prefix and %v", n, prefix, p, bounds, ref)
			}
			queried := make([]bool, n)
			var merger KNNMerger
			merger.Reset(1 + rng.Intn(4))
			for {
				want := refNextWave(ref, queried, &merger)
				dst, prefix := prefixed(rng, -1)
				got := NextWave(dst, ref, queried, &merger)
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("n=%d: NextWave(%v) = %v, want the prefix and %v", n, prefix, got, want)
				}
				if want == nil {
					break
				}
				for _, s := range want {
					queried[s] = true
					merger.Add(uint64(s), ref[s]+rng.Float64()/10)
				}
			}
		}
	}
}

// TestKNNMergerReset: a merger Reset after a query with a larger k answers
// exactly as a fresh one.
func TestKNNMergerReset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var reused KNNMerger
	for trial := 0; trial < 200; trial++ {
		k := []int{40, 5, 0, 17, 1}[trial%5]
		var fresh KNNMerger
		fresh.Reset(k)
		reused.Reset(k)
		for j := 0; j < 60; j++ {
			// Coarse distances and repeated IDs force ties and duplicates.
			id, d := uint64(rng.Intn(50)), float64(rng.Intn(10))/10
			fresh.Add(id, d)
			reused.Add(id, d)
		}
		if !slices.Equal(reused.Neighbors(), fresh.Neighbors()) ||
			reused.Full() != fresh.Full() || reused.Bound() != fresh.Bound() {
			t.Fatalf("trial %d, k=%d: reused merger %v (bound %g), fresh %v (bound %g)",
				trial, k, reused.Neighbors(), reused.Bound(), fresh.Neighbors(), fresh.Bound())
		}
	}
}

func TestObservePadGrows(t *testing.T) {
	m := Uniform(4)
	if px, py := m.Pad(); px != 0 || py != 0 {
		t.Fatalf("fresh pad %g,%g", px, py)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	m.Observe(geom.R(0.1, 0.2, 0.3, 0.24))
	if px, py := m.Pad(); !near(px, 0.1) || !near(py, 0.02) {
		t.Fatalf("pad %g,%g after observe", px, py)
	}
	m.Observe(geom.R(0.5, 0.5, 0.52, 0.9)) // grows y only
	if px, py := m.Pad(); !near(px, 0.1) || !near(py, 0.2) {
		t.Fatalf("pad %g,%g after second observe", px, py)
	}
	m.Observe(geom.EmptyRect()) // no NaN poisoning
	if px, py := m.Pad(); !near(px, 0.1) || !near(py, 0.2) {
		t.Fatalf("pad %g,%g after empty observe", px, py)
	}
}

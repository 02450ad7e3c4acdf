package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"spatialcluster/internal/geom"
)

// Map is an immutable partition of the Hilbert index space into N contiguous
// ranges, plus a monotonically growing record of the largest key half-extent
// routed through it. The cuts never change after construction; the pad is
// updated atomically, so a Map is safe for concurrent use by the router.
type Map struct {
	// cuts are the N-1 interior boundaries, ascending. Shard i owns
	// [Lo(i), Hi(i)) with Lo(0) = 0 and Hi(N-1) = geom.HilbertRange.
	// Duplicate cuts are legal and make the shard between them empty.
	cuts []uint64
	// padX/padY hold math.Float64bits of the largest key half-extent seen
	// on each axis; queries are expanded by them before shard overlap is
	// decided, because an object's routing center can sit up to a
	// half-extent outside any window the object intersects.
	padX, padY atomic.Uint64
}

// Uniform returns a Map splitting the index space into n equal ranges.
// n must be at least 1.
func Uniform(n int) *Map {
	if n < 1 {
		panic(fmt.Sprintf("shard.Uniform: n = %d", n))
	}
	cuts := make([]uint64, n-1)
	step := geom.HilbertRange / uint64(n)
	for i := range cuts {
		cuts[i] = uint64(i+1) * step
	}
	return &Map{cuts: cuts}
}

// FromKeys returns a Map whose n ranges hold equal quantiles of the given
// spatial keys (by Hilbert index of the key center), and whose pad covers the
// keys' half-extents. The construction is deterministic: the same keys in any
// order yield the same Map. With no keys it degrades to Uniform(n).
func FromKeys(keys []geom.Rect, n int) *Map {
	if n < 1 {
		panic(fmt.Sprintf("shard.FromKeys: n = %d", n))
	}
	if len(keys) == 0 {
		return Uniform(n)
	}
	m := &Map{cuts: make([]uint64, n-1)}
	idx := make([]uint64, len(keys))
	for i, k := range keys {
		idx[i] = geom.HilbertIndex(k.Center())
		m.Observe(k)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	for i := 1; i < n; i++ {
		m.cuts[i-1] = idx[i*len(idx)/n]
	}
	return m
}

// FromRanges builds a Map from explicit per-shard [lo, hi) index ranges,
// validating that they partition the full index space in order — the
// constructor behind the router daemon's -shards flag.
func FromRanges(ranges [][2]uint64) (*Map, error) {
	if len(ranges) == 0 {
		return nil, errors.New("no shard ranges")
	}
	if ranges[0][0] != 0 {
		return nil, fmt.Errorf("first shard range starts at %d, must start at 0", ranges[0][0])
	}
	for i, r := range ranges {
		if r[1] < r[0] {
			return nil, fmt.Errorf("shard %d: inverted range %d-%d", i, r[0], r[1])
		}
		if i > 0 {
			switch prev := ranges[i-1][1]; {
			case r[0] < prev:
				return nil, fmt.Errorf("shard %d: range %d-%d overlaps shard %d ending at %d",
					i, r[0], r[1], i-1, prev)
			case r[0] > prev:
				return nil, fmt.Errorf("shard %d: gap %d-%d before range", i, prev, r[0])
			}
		}
	}
	if last := ranges[len(ranges)-1][1]; last != geom.HilbertRange {
		return nil, fmt.Errorf("last shard range ends at %d, must end at %d",
			last, geom.HilbertRange)
	}
	cuts := make([]uint64, len(ranges)-1)
	for i := range cuts {
		cuts[i] = ranges[i][1]
	}
	return &Map{cuts: cuts}, nil
}

// N returns the number of shards.
func (m *Map) N() int { return len(m.cuts) + 1 }

// Range returns the half-open Hilbert index interval owned by shard i.
func (m *Map) Range(i int) (lo, hi uint64) {
	if i > 0 {
		lo = m.cuts[i-1]
	}
	hi = geom.HilbertRange
	if i < len(m.cuts) {
		hi = m.cuts[i]
	}
	return lo, hi
}

// String renders the partition as "lo-hi,lo-hi,..." — the textual form the
// router daemon's -shards flag and /shards endpoint speak.
func (m *Map) String() string {
	var b strings.Builder
	for i := 0; i < m.N(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		lo, hi := m.Range(i)
		b.WriteString(strconv.FormatUint(lo, 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatUint(hi, 10))
	}
	return b.String()
}

// ShardOfIndex returns the shard owning Hilbert index d.
func (m *Map) ShardOfIndex(d uint64) int {
	return sort.Search(len(m.cuts), func(j int) bool { return m.cuts[j] > d })
}

// ShardOfKey returns the shard owning an object with the given spatial key:
// the shard of the Hilbert index of the key's center. It does not grow the
// pad; mutation paths call Observe as well.
func (m *Map) ShardOfKey(key geom.Rect) int {
	return m.ShardOfIndex(geom.HilbertIndex(key.Center()))
}

// Observe grows the pad to cover the key's half-extents. Every key routed to
// a shard must be observed (FromKeys observes its sample itself), or windows
// near a shard boundary could miss objects whose center lies across it.
func (m *Map) Observe(key geom.Rect) {
	if key.IsEmpty() {
		return
	}
	growMax(&m.padX, key.Width()/2)
	growMax(&m.padY, key.Height()/2)
}

// SetPad forces the pad to at least (px, py) — for routers fronting shards
// whose data was built out of band, where the build-time extents never
// passed through Observe.
func (m *Map) SetPad(px, py float64) {
	growMax(&m.padX, px)
	growMax(&m.padY, py)
}

// Pad returns the current per-axis pad.
func (m *Map) Pad() (px, py float64) {
	return math.Float64frombits(m.padX.Load()), math.Float64frombits(m.padY.Load())
}

func growMax(a *atomic.Uint64, v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// expand grows w by the pad on each axis and clamps every endpoint into
// [0,1]. Object centers live in [0,1]² (clamped there by HilbertCellOf), so
// a grown window disjoint from the unit square can cover no center at all —
// it overlaps zero shards (ok false). Otherwise clamping the endpoints
// (rather than intersecting with the unit square) matters: HilbertCellOf
// clamps centers the same monotone way, so a center's clamped image lies in
// the clamped expanded window exactly when the unclamped center lies in the
// unclamped one.
func (m *Map) expand(w geom.Rect) (q geom.Rect, ok bool) {
	px, py := m.Pad()
	grown := geom.Rect{
		MinX: w.MinX - px, MinY: w.MinY - py,
		MaxX: w.MaxX + px, MaxY: w.MaxY + py,
	}
	if !grown.Intersects(geom.R(0, 0, 1, 1)) {
		return geom.Rect{}, false
	}
	return geom.Rect{
		MinX: clamp01(grown.MinX), MinY: clamp01(grown.MinY),
		MaxX: clamp01(grown.MaxX), MaxY: clamp01(grown.MaxY),
	}, true
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Overlapping returns, ascending, the shards whose region can own an object
// intersecting window w: the shards whose Hilbert region intersects w
// expanded by the pad. An empty w overlaps no shard.
func (m *Map) Overlapping(w geom.Rect) []int { return m.AppendOverlapping(nil, w) }

// AppendOverlapping appends Overlapping(w) to dst, growing it at most once;
// up to 64 shards it allocates nothing else.
func (m *Map) AppendOverlapping(dst []int, w geom.Rect) []int {
	if w.IsEmpty() {
		return dst
	}
	q, ok := m.expand(w)
	if !ok {
		return dst
	}
	var onStack [64]bool
	hit := onStack[:min(m.N(), len(onStack))]
	if m.N() > len(onStack) {
		hit = make([]bool, m.N())
	}
	m.overlapDescend(0, 0, geom.HilbertSide, q, hit)
	dst = slices.Grow(dst, m.N())
	for i, h := range hit {
		if h {
			dst = append(dst, i)
		}
	}
	return dst
}

// overlapDescend marks the shards whose region intersects q, descending the
// curve's aligned blocks. A block resolves without recursion when it misses
// q, lies inside one shard, or lies entirely inside q (then every shard its
// interval touches is hit) — so recursion continues only at blocks that
// partially overlap q while straddling a boundary.
func (m *Map) overlapDescend(x, y, size uint32, q geom.Rect, hit []bool) {
	r := geom.HilbertBlockRect(x, y, size)
	if !r.Intersects(q) {
		return
	}
	lo, hi := geom.HilbertBlockRange(x, y, size)
	s1, s2 := m.ShardOfIndex(lo), m.ShardOfIndex(hi-1)
	if s1 == s2 {
		hit[s1] = true
		return
	}
	if q.ContainsRect(r) {
		for i := s1; i <= s2; i++ {
			hit[i] = true
		}
		return
	}
	half := size / 2
	m.overlapDescend(x, y, half, q, hit)
	m.overlapDescend(x+half, y, half, q, hit)
	m.overlapDescend(x, y+half, half, q, hit)
	m.overlapDescend(x+half, y+half, half, q, hit)
}

// ShardDists appends to dst a lower bound, per shard, of the exact distance
// from p to any object the shard owns: the minimum over the shard's Hilbert
// blocks of MinDist(p, block expanded by the pad). A shard containing p's
// cell gets 0; an empty shard (zero-width range) keeps +Inf. The k-NN scatter
// uses these with the same strict comparison as the best-first leaf
// traversal: a shard is pruned only when its bound strictly exceeds the k-th
// global distance.
func (m *Map) ShardDists(dst []float64, p geom.Point) []float64 {
	n := len(dst)
	for range m.N() {
		dst = append(dst, math.Inf(1))
	}
	px, py := m.Pad()
	m.distDescend(0, 0, geom.HilbertSide, p, px, py, dst[n:])
	return dst
}

func (m *Map) distDescend(x, y, size uint32, p geom.Point, px, py float64, dists []float64) {
	lo, hi := geom.HilbertBlockRange(x, y, size)
	s1, s2 := m.ShardOfIndex(lo), m.ShardOfIndex(hi-1)
	r := geom.HilbertBlockRect(x, y, size)
	r.MinX, r.MinY, r.MaxX, r.MaxY = r.MinX-px, r.MinY-py, r.MaxX+px, r.MaxY+py
	d := r.MinDist(p)
	if s1 == s2 {
		if d < dists[s1] {
			dists[s1] = d
		}
		return
	}
	// The block can only lower the bounds of shards s1..s2, and never below
	// its own MinDist: recursing is useless once they are all at or below d.
	useful := false
	for i := s1; i <= s2; i++ {
		if d < dists[i] {
			useful = true
			break
		}
	}
	if !useful {
		return
	}
	half := size / 2
	m.distDescend(x, y, half, p, px, py, dists)
	m.distDescend(x+half, y, half, p, px, py, dists)
	m.distDescend(x, y+half, half, p, px, py, dists)
	m.distDescend(x+half, y+half, half, p, px, py, dists)
}

// Counts tallies how many of the given keys route to each shard — the
// balance diagnostic reported by benchmarks and the /shards endpoint.
func (m *Map) Counts(keys []geom.Rect) []int {
	out := make([]int, m.N())
	for _, k := range keys {
		out[m.ShardOfKey(k)]++
	}
	return out
}

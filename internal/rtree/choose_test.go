package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/pagefile"
)

// refChooseSubtree is chooseSubtree as it was before PR 25, kept as the
// reference: every entry of a leaf-parent node sums its overlap enlargement
// against every sibling, O(M²) intersections per call.
func refChooseSubtree(n *Node, r geom.Rect) int {
	best := 0
	if n.Level == 1 {
		bestOverlap, bestEnl, bestArea := refOverlapEnlargement(n.Entries, 0, r),
			n.Entries[0].Rect.Enlargement(r), n.Entries[0].Rect.Area()
		for i := 1; i < len(n.Entries); i++ {
			ov := refOverlapEnlargement(n.Entries, i, r)
			enl := n.Entries[i].Rect.Enlargement(r)
			area := n.Entries[i].Rect.Area()
			if ov < bestOverlap ||
				(ov == bestOverlap && enl < bestEnl) ||
				(ov == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := n.Entries[0].Rect.Enlargement(r), n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// refOverlapEnlargement returns how much the overlap of entry i with its
// siblings grows when i is enlarged to cover r.
func refOverlapEnlargement(entries []Entry, i int, r geom.Rect) float64 {
	old := entries[i].Rect
	grown := old.Union(r)
	var delta float64
	for j := range entries {
		if j == i {
			continue
		}
		delta += grown.OverlapArea(entries[j].Rect) - old.OverlapArea(entries[j].Rect)
	}
	return delta
}

// refChooseSplit is the R* split decision as it was before PR 25, kept as the
// reference: four fresh sorted copies, and both group MBRs recomputed from
// scratch for every cut. It also reports which order won (axis, and 0 for
// the sort by lower, 1 by upper value), so tests can see them all win.
func refChooseSplit(t *Tree, n *Node) (axis, order int, sorted []Entry, k int) {
	entries := n.Entries
	count := len(entries)
	m := int(minFillRatio * float64(count))
	if m < 1 {
		m = 1
	}
	if m > count/2 {
		m = count / 2
	}
	axisSorts := refCandidateSorts(entries)
	bestAxis, bestMargin := 0, -1.0
	for axis, sorts := range axisSorts {
		margin := 0.0
		for _, s := range sorts {
			for k := m; k <= count-m; k++ {
				lr, rr := refGroupRects(s, k)
				margin += lr.Margin() + rr.Margin()
			}
		}
		if bestMargin < 0 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	type candidate struct {
		order   int
		k       int
		overlap float64
		area    float64
		fits    bool
	}
	var best *candidate
	betterOf := func(a, b *candidate) *candidate {
		if a == nil {
			return b
		}
		if a.fits != b.fits {
			if b.fits {
				return b
			}
			return a
		}
		if b.overlap < a.overlap ||
			(b.overlap == a.overlap && b.area < a.area) {
			return b
		}
		return a
	}
	for order, s := range axisSorts[bestAxis] {
		for k := m; k <= count-m; k++ {
			lr, rr := refGroupRects(s, k)
			best = betterOf(best, &candidate{
				order:   order,
				k:       k,
				overlap: lr.OverlapArea(rr),
				area:    lr.Area() + rr.Area(),
				fits:    refSplitFits(t, n.Level, s, k),
			})
		}
	}
	if !best.fits {
		s := axisSorts[bestAxis][0]
		best = &candidate{order: 0, k: refByteBalancedCut(t, n.Level, s)}
	}
	return bestAxis, best.order, axisSorts[bestAxis][best.order], best.k
}

func refCandidateSorts(entries []Entry) [2][][]Entry {
	var out [2][][]Entry
	keys := []func(e *Entry) (float64, float64){
		func(e *Entry) (float64, float64) { return e.Rect.MinX, e.Rect.MaxX },
		func(e *Entry) (float64, float64) { return e.Rect.MinY, e.Rect.MaxY },
	}
	for axis, key := range keys {
		byMin := append([]Entry(nil), entries...)
		sort.SliceStable(byMin, func(i, j int) bool {
			a, _ := key(&byMin[i])
			b, _ := key(&byMin[j])
			return a < b
		})
		byMax := append([]Entry(nil), entries...)
		sort.SliceStable(byMax, func(i, j int) bool {
			_, a := key(&byMax[i])
			_, b := key(&byMax[j])
			return a < b
		})
		out[axis] = [][]Entry{byMin, byMax}
	}
	return out
}

// refGroupRects returns the MBRs of s[:k] and s[k:].
func refGroupRects(s []Entry, k int) (geom.Rect, geom.Rect) {
	l, r := geom.EmptyRect(), geom.EmptyRect()
	for i := 0; i < k; i++ {
		l = l.Union(s[i].Rect)
	}
	for i := k; i < len(s); i++ {
		r = r.Union(s[i].Rect)
	}
	return l, r
}

// refSplitFits and refByteBalancedCut are splitFits and byteBalancedCut as
// they were before PR 25, on a sorted copy instead of an order.
func refSplitFits(t *Tree, level int, s []Entry, k int) bool {
	if level > 0 || !t.cfg.VariableLeaf {
		return true
	}
	bytesOf := func(part []Entry) int {
		b := nodeHeaderSize
		for i := range part {
			b += t.entryBytes(level, &part[i])
		}
		return b
	}
	return bytesOf(s[:k]) <= disk.PageSize && bytesOf(s[k:]) <= disk.PageSize
}

func refByteBalancedCut(t *Tree, level int, s []Entry) int {
	total := 0
	for i := range s {
		total += t.entryBytes(level, &s[i])
	}
	bestK, bestDiff := 1, -1
	acc := 0
	for k := 1; k < len(s); k++ {
		acc += t.entryBytes(level, &s[k-1])
		diff := acc - (total - acc)
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			bestK, bestDiff = k, diff
		}
	}
	return bestK
}

// chooseCase is one input of the differential: a directory node and the key
// being inserted. Entry i's Child is i+1, so an order is checked entry by
// entry even where rectangles repeat.
type chooseCase struct {
	node *Node
	key  geom.Rect
}

// The byte form of a chooseCase, which FuzzChooseSubtree mutates: one level
// byte (even: 1, the overlap criterion; odd: 2, area enlargement), the key,
// then up to maxCaseEntries entries; a rectangle is four little-endian
// coordinate codes (x1, y1, x2, y2, normalised by geom.R). A code's low 14
// bits are a grid value g/1024 in [0, 16) — a coarse grid, so that equal and
// touching edges are common — and its top two bits perturb it: 0 keeps g, 1
// and 2 step one ulp up and down, 3 negates it (0 becomes -0).
const (
	caseRectBytes  = 8
	maxCaseEntries = 90 // M+1: an overfull node, the one splitNode sees
)

func decodeCoord(c uint16) float64 {
	g := float64(c&0x3fff) / 1024
	switch c >> 14 {
	case 1:
		return math.Nextafter(g, math.Inf(1))
	case 2:
		return math.Nextafter(g, math.Inf(-1))
	case 3:
		return -g
	}
	return g
}

func decodeCaseRect(b []byte) geom.Rect {
	c := func(i int) float64 { return decodeCoord(binary.LittleEndian.Uint16(b[2*i:])) }
	return geom.R(c(0), c(1), c(2), c(3))
}

// decodeChooseCase reads a case; ok is false unless data holds a key and at
// least one entry.
func decodeChooseCase(data []byte) (c chooseCase, ok bool) {
	if len(data) < 1+2*caseRectBytes {
		return c, false
	}
	c.node = &Node{Level: 1 + int(data[0]&1)}
	c.key = decodeCaseRect(data[1:])
	for off := 1 + caseRectBytes; off+caseRectBytes <= len(data) && len(c.node.Entries) < maxCaseEntries; off += caseRectBytes {
		c.node.Entries = append(c.node.Entries, Entry{Rect: decodeCaseRect(data[off:]), Child: disk.PageID(len(c.node.Entries) + 1)})
	}
	return c, true
}

// code builds a coordinate code: grid value g (in 1/1024) and perturbation p.
func code(g, p int) uint16 { return uint16(p)<<14 | uint16(g)&0x3fff }

// encodeChooseCase is decodeChooseCase's inverse for rectangles given as
// codes.
func encodeChooseCase(level int, key [4]uint16, entries ...[4]uint16) []byte {
	out := []byte{byte(level - 1)}
	for _, r := range append([][4]uint16{key}, entries...) {
		for _, c := range r {
			out = binary.LittleEndian.AppendUint16(out, c)
		}
	}
	return out
}

// gridRect is the code-space rectangle [x1,x2]×[y1,y2], unperturbed.
func gridRect(x1, y1, x2, y2 int) [4]uint16 {
	return [4]uint16{code(x1, 0), code(y1, 0), code(x2, 0), code(y2, 0)}
}

// seedCases are the hand-built edge cases the fuzz corpus starts from.
func seedCases() map[string][]byte {
	tiles := func(n int) [][4]uint16 { // an n×n tiling: every edge is shared
		var out [][4]uint16
		for i := 0; i < n*n; i++ {
			x, y := (i%n)*8, (i/n)*8
			out = append(out, gridRect(x, y, x+8, y+8))
		}
		return out
	}
	nested := [][4]uint16{gridRect(0, 0, 64, 64), gridRect(8, 8, 40, 40), gridRect(16, 16, 24, 24), gridRect(60, 60, 90, 90)}
	dups := [][4]uint16{gridRect(10, 10, 20, 20), gridRect(10, 10, 20, 20), gridRect(30, 0, 40, 5), gridRect(10, 10, 20, 20)}
	points := [][4]uint16{gridRect(5, 5, 5, 5), gridRect(5, 5, 30, 5), gridRect(5, 5, 5, 30), gridRect(30, 30, 30, 30), gridRect(0, 0, 10, 10)}
	signed := [][4]uint16{
		{code(0, 3), code(0, 3), code(8, 0), code(8, 0)},  // corner at (-0, -0)
		{code(0, 0), code(0, 0), code(8, 0), code(8, 0)},  // the same at (+0, +0)
		{code(8, 1), code(0, 0), code(16, 0), code(8, 0)}, // one ulp clear of the first's right edge
		{code(8, 2), code(0, 0), code(16, 0), code(8, 0)}, // one ulp into it
		{code(4, 3), code(4, 3), code(0, 3), code(4, 0)},  // negative coordinates
	}
	full := tiles(9)
	return map[string][]byte{
		"tiles_corner_key":   encodeChooseCase(1, gridRect(8, 8, 8, 8), tiles(4)...),
		"tiles_edge_key":     encodeChooseCase(1, gridRect(8, 2, 8, 6), tiles(4)...),
		"tiles_dir_level":    encodeChooseCase(2, gridRect(7, 7, 9, 9), tiles(4)...),
		"nested_contained":   encodeChooseCase(1, gridRect(18, 18, 20, 20), nested...),
		"nested_outside":     encodeChooseCase(1, gridRect(100, 100, 101, 101), nested...),
		"duplicates":         encodeChooseCase(1, gridRect(12, 12, 14, 14), dups...),
		"duplicates_outside": encodeChooseCase(1, gridRect(22, 22, 24, 24), dups...),
		"points_segments":    encodeChooseCase(1, gridRect(5, 5, 5, 5), points...),
		"signed_zero_ulp":    encodeChooseCase(1, [4]uint16{code(0, 3), code(2, 0), code(8, 0), code(2, 0)}, signed...),
		"full_node":          encodeChooseCase(1, gridRect(20, 20, 30, 30), full[:89]...),
		"overfull_node":      encodeChooseCase(1, gridRect(20, 20, 30, 30), append(full[:89], gridRect(3, 3, 70, 4))...),
		"single_entry":       encodeChooseCase(1, gridRect(1, 1, 2, 2), gridRect(5, 5, 6, 6)),
	}
}

// randomCase draws a case of 2..maxCaseEntries entries from one of four
// families; between them they hit every case the seeds name — keys in no,
// one or several entries, duplicates, shared edges, points and segments, -0
// and 1-ulp neighbours, and ties on each criterion.
func randomCase(rng *rand.Rand) chooseCase {
	n := 2 + rng.Intn(maxCaseEntries-1)
	level := 1 + rng.Intn(4)/3 // three in four at the overlap criterion
	switch rng.Intn(4) {
	case 0: // continuous: what a real leaf-parent node looks like
		c := chooseCase{node: &Node{Level: level}}
		for i := 0; i < n; i++ {
			c.node.Entries = append(c.node.Entries, Entry{Rect: randRect(rng), Child: disk.PageID(i + 1)})
		}
		c.key = randRect(rng)
		if rng.Intn(3) == 0 { // a key inside an entry
			e := c.node.Entries[rng.Intn(n)].Rect
			c.key = geom.RectFromPoint(geom.Pt(e.MinX+rng.Float64()*e.Width(), e.MinY+rng.Float64()*e.Height()))
		}
		return c
	case 1: // coarse grid with perturbations: coincidences everywhere
		span := 4 + rng.Intn(60)
		coord := func() uint16 {
			p := 0
			if rng.Intn(4) == 0 {
				p = 1 + rng.Intn(3)
			}
			return code(rng.Intn(span), p)
		}
		rect := func() [4]uint16 {
			r := [4]uint16{coord(), coord(), coord(), coord()}
			switch rng.Intn(6) {
			case 0: // point
				r[2], r[3] = r[0], r[1]
			case 1: // horizontal segment
				r[3] = r[1]
			}
			return r
		}
		var entries [][4]uint16
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(5) == 0 {
				entries = append(entries, entries[rng.Intn(i)]) // duplicate
			} else {
				entries = append(entries, rect())
			}
		}
		c, _ := decodeChooseCase(encodeChooseCase(level, rect(), entries...))
		return c
	case 2: // a tiling: shared edges, and keys on corners and edges tie
		side := 8 * (1 + rng.Intn(3))
		cols := 1 + rng.Intn(9)
		var entries [][4]uint16
		for i := 0; i < n; i++ {
			x, y := (i%cols)*side, (i/cols)*side
			entries = append(entries, gridRect(x, y, x+side, y+side))
		}
		x, y := rng.Intn(cols+1)*side, rng.Intn(n/cols+1)*side
		key := gridRect(x, y, x+rng.Intn(2)*side/2, y)
		c, _ := decodeChooseCase(encodeChooseCase(level, key, entries...))
		return c
	default: // nested and repeated: keys contained in several entries
		c := chooseCase{node: &Node{Level: level}}
		for i := 0; i < n; i++ {
			cx, cy := 0.5+rng.NormFloat64()*0.05, 0.5+rng.NormFloat64()*0.05
			h := 0.01 + rng.Float64()*0.3
			r := geom.R(cx-h, cy-h, cx+h, cy+h)
			if i > 0 && rng.Intn(4) == 0 {
				r = c.node.Entries[rng.Intn(i)].Rect
			}
			c.node.Entries = append(c.node.Entries, Entry{Rect: r, Child: disk.PageID(i + 1)})
		}
		p := geom.Pt(0.5+rng.NormFloat64()*0.1, 0.5+rng.NormFloat64()*0.1)
		c.key = geom.R(p.X, p.Y, p.X+rng.Float64()*0.02, p.Y)
		return c
	}
}

// checkChoose holds chooseSubtree and chooseSplit to their references on one
// case: the same entry index, and the same split — the same entries in the
// same order, cut at the same k.
func checkChoose(t *testing.T, tr *Tree, c chooseCase) {
	t.Helper()
	if got, want := tr.chooseSubtree(c.node, c.key), refChooseSubtree(c.node, c.key); got != want {
		t.Fatalf("level %d, key %v, %d entries: chooseSubtree = %d, reference %d",
			c.node.Level, c.key, len(c.node.Entries), got, want)
	}
	if len(c.node.Entries) < 2 {
		return
	}
	_, _, want, wantK := refChooseSplit(tr, c.node)
	order, k := tr.chooseSplit(c.node, new(splitScratch))
	got := pick(c.node.Entries, order)
	if k != wantK || len(got) != len(want) {
		t.Fatalf("%d entries: split at %d of %d, reference at %d of %d", len(c.node.Entries), k, len(got), wantK, len(want))
	}
	for i := range got {
		if got[i].Child != want[i].Child || !sameRect(got[i].Rect, want[i].Rect) {
			t.Fatalf("%d entries: split order differs at %d: entry %d, reference %d", len(c.node.Entries), i, got[i].Child, want[i].Child)
		}
	}
}

// TestChooseMatchesReference is the differential: thousands of random nodes
// of 2–90 entries, every choice equal to the quadratic reference's. It also
// counts, through the references, that the families reach what they are for.
func TestChooseMatchesReference(t *testing.T) {
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(25))
	var contained [3]int // keys inside no, one, several entries
	var ties [3]int      // the winner tied on overlap, then enlargement, then area
	var splits [2][2]int // winning split axis and order
	cases := 4000
	if testing.Short() || raceEnabled() {
		cases = 800
	}
	for i := 0; i < cases; i++ {
		c := randomCase(rng)
		checkChoose(t, tr, c)
		axis, order, _, _ := refChooseSplit(tr, c.node)
		splits[axis][order]++
		if c.node.Level != 1 {
			continue
		}
		in := 0
		for _, e := range c.node.Entries {
			if e.Rect.ContainsRect(c.key) {
				in++
			}
		}
		contained[min(in, 2)]++
		w := refChooseSubtree(c.node, c.key)
		score := func(j int) [3]float64 {
			e := c.node.Entries[j].Rect
			return [3]float64{refOverlapEnlargement(c.node.Entries, j, c.key), e.Enlargement(c.key), e.Area()}
		}
		best := score(w)
		var tied [3]bool
		for j := range c.node.Entries {
			if s := score(j); j != w {
				tied[0] = tied[0] || s[0] == best[0]
				tied[1] = tied[1] || (s[0] == best[0] && s[1] == best[1])
				tied[2] = tied[2] || s == best
			}
		}
		for k, ok := range tied {
			if ok {
				ties[k]++
			}
		}
	}
	t.Logf("keys in 0/1/several entries: %v; winner tied on overlap/+enlargement/+area: %v; split axis×order: %v", contained, ties, splits)
	for k := range contained {
		if contained[k] == 0 || ties[k] == 0 {
			t.Errorf("coverage: contained %v, ties %v — a family stopped reaching its case", contained, ties)
		}
	}
	for axis := range splits {
		for order := range splits[axis] {
			if splits[axis][order] == 0 {
				t.Errorf("coverage: split axis %d order %d never won: %v", axis, order, splits)
			}
		}
	}
}

// TestVariableLeafSplitMatchesReference: on variable leaves (the primary
// organization) the split also weighs bytes — candidates whose halves
// overflow a page lose, and when all do the byte-balanced cut is taken.
func TestVariableLeafSplitMatchesReference(t *testing.T) {
	tr := newTestTree(t, Config{VariableLeaf: true})
	rng := rand.New(rand.NewSource(26))
	fallbacks := 0
	for i := 0; i < 600; i++ {
		c := randomCase(rng)
		n := &Node{Level: 0}
		for j, e := range c.node.Entries[:min(len(c.node.Entries), 2+rng.Intn(30))] {
			e.Payload = make([]byte, 8+rng.Intn(1500))
			binary.LittleEndian.PutUint64(e.Payload, uint64(j))
			n.Entries = append(n.Entries, e)
		}
		_, _, want, wantK := refChooseSplit(tr, n)
		order, k := tr.chooseSplit(n, new(splitScratch))
		got := pick(n.Entries, order)
		if k != wantK {
			t.Fatalf("%d entries: split at %d, reference at %d", len(n.Entries), k, wantK)
		}
		for j := range got {
			if got[j].Child != want[j].Child || len(got[j].Payload) != len(want[j].Payload) {
				t.Fatalf("%d entries: split order differs at %d", len(n.Entries), j)
			}
		}
		if !refSplitFits(tr, 0, want, wantK) {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("no case reached the byte-balanced fallback")
	}
}

// TestChooseSeedCases replays the fuzz seeds through the differential, and
// writes them into testdata/fuzz/FuzzChooseSubtree when REGEN_CORPUS=1.
func TestChooseSeedCases(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzChooseSubtree")
	tr := newTestTree(t, Config{})
	for name, data := range seedCases() {
		c, ok := decodeChooseCase(data)
		if !ok {
			t.Fatalf("seed %s does not decode", name)
		}
		checkChoose(t, tr, c)
		if os.Getenv("REGEN_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fuzz corpus missing: %v (regenerate with REGEN_CORPUS=1)", err)
	}
}

// FuzzChooseSubtree decodes a node and a key from bytes (see
// decodeChooseCase) and holds the bounded ChooseSubtree and the prefix/suffix
// split to their quadratic references.
func FuzzChooseSubtree(f *testing.F) {
	for _, data := range seedCases() {
		f.Add(data)
	}
	tr := newTestTree(nil, Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeChooseCase(data); ok {
			checkChoose(t, tr, c)
		}
	})
}

// TestMutationAllocs: on a warm tree a mutation allocates only the pages it
// changes, each at its used length. Descents decode into the tree's scratch
// and an unchanged node is re-buffered as its own page, so an Insert pays for
// its leaf and, when its MBR grows, the parent (splits and reinserts are
// rare), and a Delete for its leaf alone. The byte ceilings hold the pages to
// their used length: cloning a full page per changed node read 17-33 % more.
func TestMutationAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	const n, runs = 20000, 2000
	for _, c := range []struct {
		name               string
		cfg                Config
		insBytes, delBytes float64 // ceilings on the bytes a call allocates
	}{
		{"rstar", Config{}, 9400, 4050},
		{"cluster", Config{DisableLeafReinsert: true, DisableLeafCondense: true}, 3980, 3400},
	} {
		tr := newTestTree(t, c.cfg)
		rng := rand.New(rand.NewSource(6))
		rects := make([]geom.Rect, n+runs+1)
		payloads := make([][]byte, len(rects))
		for i := range rects {
			rects[i], payloads[i] = randRect(rng), payloadFor(uint64(i))
		}
		for i := 0; i < n; i++ {
			tr.Insert(rects[i], payloads[i])
		}
		i := n
		ins, insBytes := allocsPerRun(runs, func() {
			tr.Insert(rects[i], payloads[i])
			i++
		})
		i = 0
		del, delBytes := allocsPerRun(runs, func() {
			if !tr.Delete(rects[i], nil) {
				t.Fatalf("%s: entry %d not found", c.name, i)
			}
			i++
		})
		if ins > 3 {
			t.Errorf("%s: Insert allocates %v times per call, want <= 3", c.name, ins)
		}
		if del > 2 {
			t.Errorf("%s: Delete allocates %v times per call, want <= 2", c.name, del)
		}
		if insBytes > c.insBytes {
			t.Errorf("%s: Insert allocates %.0f bytes per call, want <= %.0f", c.name, insBytes, c.insBytes)
		}
		if delBytes > c.delBytes {
			t.Errorf("%s: Delete allocates %.0f bytes per call, want <= %.0f", c.name, delBytes, c.delBytes)
		}
		t.Logf("%s: Insert %v allocations, %.0f bytes; Delete %v allocations, %.0f bytes per call",
			c.name, ins, insBytes, del, delBytes)
	}
}

// allocsPerRun is testing.AllocsPerRun that also returns the bytes allocated
// per call: f runs once to warm up, then runs times on one P.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// scale8Keys are the MBRs of the benchmark's data set (bench/: scale 8, seed
// 1, 16,432 streets).
func scale8Keys(b *testing.B) []geom.Rect {
	b.Helper()
	return datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 8, Seed: 1}).MBRs
}

func prefilledTree(cfg Config, keys []geom.Rect) *Tree {
	d := disk.NewDefault()
	tr := New(buffer.New(d, 4096), pagefile.NewAllocator(d), cfg)
	for i, k := range keys {
		tr.Insert(k, payloadFor(uint64(i)))
	}
	return tr
}

// BenchmarkInsert times inserts in steady state: into a tree prefilled with
// the scale-8 data set, inserting its keys again (a fresh prefilled tree,
// off the clock, every 16,432 inserts, so the tree never outgrows twice that
// size), as plain R* and in the cluster organization's configuration.
func BenchmarkInsert(b *testing.B) {
	keys := scale8Keys(b)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"rstar", Config{}},
		{"cluster", Config{DisableLeafReinsert: true, DisableLeafCondense: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := prefilledTree(c.cfg, keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(keys) == 0 {
					b.StopTimer()
					tr = prefilledTree(c.cfg, keys)
					b.StartTimer()
				}
				tr.Insert(keys[i%len(keys)], payloadFor(uint64(len(keys)+i)))
			}
		})
	}
}

// BenchmarkDelete times deletes in steady state: from a tree prefilled with
// the scale-8 data set, deleting its keys in a shuffled order (a fresh
// prefilled tree, off the clock, every 8,216 deletes, so the tree never
// shrinks below half its size), as plain R* and in the cluster
// organization's configuration.
func BenchmarkDelete(b *testing.B) {
	keys := scale8Keys(b)
	order := rand.New(rand.NewSource(1)).Perm(len(keys))[:len(keys)/2]
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"rstar", Config{}},
		{"cluster", Config{DisableLeafReinsert: true, DisableLeafCondense: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := prefilledTree(c.cfg, keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(order) == 0 {
					b.StopTimer()
					tr = prefilledTree(c.cfg, keys)
					b.StartTimer()
				}
				if !tr.Delete(keys[order[i%len(order)]], nil) {
					b.Fatal("key not found")
				}
			}
		})
	}
}

// BenchmarkChooseSubtree times one ChooseSubtree on the fullest leaf-parent
// node of the prefilled scale-8 tree, for keys drawn from the data set,
// bounded against the quadratic reference.
func BenchmarkChooseSubtree(b *testing.B) {
	keys := scale8Keys(b)
	tr := prefilledTree(Config{DisableLeafReinsert: true, DisableLeafCondense: true}, keys)
	var node *Node
	tr.WalkNodes(func(n *Node) bool {
		if n.Level == 1 && (node == nil || len(n.Entries) > len(node.Entries)) {
			node = n
		}
		return true
	})
	var local []geom.Rect // keys that descend into this node
	nr := node.Rect()
	for _, k := range keys {
		if nr.ContainsRect(k) {
			local = append(local, k)
		}
	}
	b.Logf("leaf-parent node of %d entries, %d keys", len(node.Entries), len(local))
	for _, c := range []struct {
		name   string
		choose func(*Node, geom.Rect) int
	}{
		{"reference", refChooseSubtree},
		{"bounded", tr.chooseSubtree},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += c.choose(node, local[i%len(local)])
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}

package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
)

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation (and sync.Pool's random drops) makes allocation counts
// meaningless.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// refDecode is the materialising decoder the cursor replaced, kept as the
// reference: it trusts the count byte and the length prefixes, copies every
// payload, and dies with a runtime index panic on a page that overruns.
func refDecode(t *Tree, buf []byte) (level int, entries []Entry, ok bool) {
	defer func() {
		if recover() != nil {
			entries, ok = nil, false
		}
	}()
	if len(buf) == 0 {
		return 0, nil, true
	}
	level = int(buf[0])
	off := nodeHeaderSize
	for i := 0; i < int(buf[1]); i++ {
		e := Entry{Rect: getRect(buf[off:])}
		off += rectSize
		switch {
		case level > 0:
			e.Child = disk.PageID(binary.LittleEndian.Uint64(buf[off:]))
			off += DefaultEntrySize - rectSize
		case t.cfg.VariableLeaf:
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			off += varLenSize
			e.Payload = append([]byte{}, buf[off:off+l]...)
			off += l
		default:
			e.Payload = append([]byte{}, buf[off:off+payloadSize]...)
			off += payloadSize
		}
		if off > len(buf) {
			panic("the entry's reserved bytes are part of it")
		}
		entries = append(entries, e)
	}
	return level, entries, true
}

// decodeOrPanic runs unmarshalNode and returns its panic message, if any.
func decodeOrPanic(t *Tree, buf []byte) (n *Node, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return t.unmarshalNode(7, buf), ""
}

// sameRect compares bit patterns: a fuzzed rectangle may hold NaNs.
func sameRect(a, b geom.Rect) bool {
	var ab, bb [rectSize]byte
	putRect(ab[:], a)
	putRect(bb[:], b)
	return ab == bb
}

// checkPage holds the cursor to the reference on one page image: either both
// reject it — the cursor with its descriptive panic — or unmarshalNode and
// the in-place scans surface exactly the reference's entries, and no payload
// can be appended to past its own entry.
func checkPage(t *testing.T, variable bool, page []byte) {
	t.Helper()
	tr := newTestTree(t, Config{VariableLeaf: variable})
	level, want, ok := refDecode(tr, page)
	n, msg := decodeOrPanic(tr, page)
	if !ok {
		if !strings.HasPrefix(msg, "rtree: page 7") {
			t.Fatalf("reference rejects the page, cursor says %q", msg)
		}
		return
	}
	if msg != "" {
		t.Fatalf("reference decodes %d entries, cursor panics: %s", len(want), msg)
	}
	if n.Level != level || len(n.Entries) != len(want) {
		t.Fatalf("level %d with %d entries, want level %d with %d", n.Level, len(n.Entries), level, len(want))
	}
	for i, e := range n.Entries {
		if !sameRect(e.Rect, want[i].Rect) || e.Child != want[i].Child || !bytes.Equal(e.Payload, want[i].Payload) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want[i])
		}
		if cap(e.Payload) != len(e.Payload) {
			t.Fatalf("entry %d: payload of %d bytes has capacity %d", i, len(e.Payload), cap(e.Payload))
		}
	}
	if level != 0 {
		return
	}
	// A leaf image can stand in for the root of a real tree: the in-place
	// scans must surface the reference's qualifying entries, in order.
	tr.buf.Put(tr.root, page)
	w := geom.R(0, 0, 0.5, 0.5)
	var hits []Entry
	for _, e := range want {
		if e.Rect.Intersects(w) {
			hits = append(hits, e)
		}
	}
	var got []Entry
	tr.Search(w, func(e Entry) bool { got = append(got, e); return true })
	var viaLeaves []Entry
	tr.SearchLeaves(w, nil, func(lm LeafMatch) bool {
		viaLeaves = append(viaLeaves, lm.Matched...)
		return true
	})
	for _, scan := range [][]Entry{got, viaLeaves} {
		if len(scan) != len(hits) {
			t.Fatalf("scan surfaced %d entries, want %d", len(scan), len(hits))
		}
		for i, e := range scan {
			if !sameRect(e.Rect, hits[i].Rect) || !bytes.Equal(e.Payload, hits[i].Payload) || cap(e.Payload) != len(e.Payload) {
				t.Fatalf("scan entry %d = %+v, want %+v", i, e, hits[i])
			}
		}
	}
}

// seedPages returns real marshalled pages — directory, fixed leaf, variable
// leaf — with the variable flag each was written under.
func seedPages() map[string]struct {
	variable bool
	page     []byte
} {
	rng := rand.New(rand.NewSource(11))
	fixed := newTestTree(nil, Config{})
	variable := newTestTree(nil, Config{VariableLeaf: true})
	dir := &Node{Level: 1}
	leaf := &Node{}
	vleaf := &Node{}
	for i := 0; i < 40; i++ {
		dir.Entries = append(dir.Entries, Entry{Rect: randRect(rng), Child: disk.PageID(1000 + i)})
		leaf.Entries = append(leaf.Entries, Entry{Rect: randRect(rng), Payload: payloadFor(uint64(i))})
		vleaf.Entries = append(vleaf.Entries, Entry{Rect: randRect(rng), Payload: bytes.Repeat([]byte{byte(i)}, 1+i*2)})
	}
	return map[string]struct {
		variable bool
		page     []byte
	}{
		"dir":       {false, fixed.marshalNode(dir)},
		"leaf":      {false, fixed.marshalNode(leaf)},
		"vleaf":     {true, variable.marshalNode(vleaf)},
		"dir_cut":   {false, fixed.marshalNode(dir)[:700]},
		"leaf_cut":  {false, fixed.marshalNode(leaf)[:nodeHeaderSize+DefaultEntrySize*3+5]},
		"vleaf_cut": {true, variable.marshalNode(vleaf)[:900]},
		"one_byte":  {false, []byte{0}},
		"empty":     {true, nil},
	}
}

// FuzzNodeCursor drives the page cursor with arbitrary bytes under both leaf
// layouts; see checkPage for the property.
func FuzzNodeCursor(f *testing.F) {
	for _, s := range seedPages() {
		f.Add(s.variable, s.page)
	}
	f.Fuzz(func(t *testing.T, variable bool, page []byte) {
		if len(page) > disk.PageSize {
			page = page[:disk.PageSize]
		}
		checkPage(t, variable, page)
	})
}

// TestGenerateCorpus regenerates the checked-in fuzz seeds when
// REGEN_CORPUS=1; otherwise it replays them through the property.
func TestGenerateCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzNodeCursor")
	if os.Getenv("REGEN_CORPUS") != "1" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("fuzz corpus missing: %v (regenerate with REGEN_CORPUS=1)", err)
		}
		for _, s := range seedPages() {
			checkPage(t, s.variable, s.page)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range seedPages() {
		body := fmt.Sprintf("go test fuzz v1\nbool(%v)\n[]byte(%q)\n", s.variable, s.page)
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptPagePanicsNamingThePage: a count byte or a length prefix that
// overruns the page used to die in a runtime index panic with no page ID.
func TestCorruptPagePanicsNamingThePage(t *testing.T) {
	fixed := newTestTree(t, Config{})
	variable := newTestTree(t, Config{VariableLeaf: true})

	page := fixed.marshalNode(&Node{Entries: []Entry{{Rect: geom.R(0, 0, 1, 1), Payload: payloadFor(1)}}})
	page[1] = 200 // 200 × 46 bytes do not fit 4 KB
	if _, msg := decodeOrPanic(fixed, page); msg != "rtree: page 7: entry 89 overruns the page (4142 of 4096 bytes)" {
		t.Fatalf("overrunning count: %q", msg)
	}

	page = variable.marshalNode(&Node{Entries: []Entry{{Rect: geom.R(0, 0, 1, 1), Payload: []byte("abc")}}})
	binary.LittleEndian.PutUint16(page[nodeHeaderSize+rectSize:], 60000)
	if _, msg := decodeOrPanic(variable, page); msg != "rtree: page 7: entry 0 overruns the page (60036 of 4096 bytes)" {
		t.Fatalf("overrunning length prefix: %q", msg)
	}

	if _, msg := decodeOrPanic(fixed, []byte{0}); msg != "rtree: page 7 holds no node (len 1)" {
		t.Fatalf("short page: %q", msg)
	}
	if n, msg := decodeOrPanic(fixed, nil); msg != "" || n.Level != 0 || len(n.Entries) != 0 {
		t.Fatalf("zero page: %+v %q", n, msg)
	}
}

// TestSearchAllocs: on a warm buffer the in-place scans allocate nothing —
// no node, no entry slice, no payload copy — however many entries they pass.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr := newTestTree(t, Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		tr.Insert(randRect(rng), payloadFor(uint64(i)))
	}
	w := geom.R(0.2, 0.2, 0.7, 0.7)
	var sum uint64
	if a := testing.AllocsPerRun(50, func() {
		tr.Search(w, func(e Entry) bool { sum += payloadID(e.Payload); return true })
	}); a != 0 {
		t.Errorf("Search allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		tr.SearchLeaves(w, nil, func(lm LeafMatch) bool { sum += uint64(len(lm.Matched)); return true })
	}); a != 0 {
		t.Errorf("SearchLeaves allocates %v times per call, want 0", a)
	}
	// The k-NN browse grows its queue; directory levels are in place, and the
	// data pages it surfaces are decoded into one pooled node, so surfacing
	// more of them allocates nothing more.
	browse := func(pages int) float64 {
		return testing.AllocsPerRun(50, func() {
			leaves := 0
			tr.NearestLeaves(geom.Pt(0.5, 0.5), nil, func(*Node, float64) bool { leaves++; return leaves < pages })
		})
	}
	if a3, a6 := browse(3), browse(6); a3 != a6 || a3 > 3 {
		t.Errorf("NearestLeaves allocates %v times over 3 data pages and %v over 6, want the same count <= 3", a3, a6)
	} else {
		t.Logf("NearestLeaves over 3 and 6 data pages: %v allocations", a3)
	}
	if sum == 0 {
		t.Fatal("the scans found nothing")
	}
}

package spatialcluster

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spatialcluster/internal/snapshot"
	"spatialcluster/internal/snaptest"
)

// buildSmallStore builds a flushed cluster store with a handful of objects.
func buildSmallStore(t *testing.T, cfg StoreConfig) Organization {
	t.Helper()
	if cfg.SmaxBytes == 0 {
		cfg.SmaxBytes = 16 * 1024
	}
	s := NewClusterStore(cfg)
	for i := 1; i <= 200; i++ {
		x := float64(i%20) / 20
		y := float64(i/20) / 10
		obj := NewObject(ObjectID(i), NewPolyline([]Point{
			Pt(x, y), Pt(x+0.01, y+0.02),
		}), 700)
		s.Insert(obj, obj.Bounds())
	}
	s.Flush()
	return s
}

func queryIDs(org Organization, w Rect) []ObjectID {
	ids := append([]ObjectID(nil), org.WindowQuery(w, TechComplete).IDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestSaveOpenRoundTrip saves a store and reopens it on both backends,
// checking stats and answers survive, via the public API.
func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	org := buildSmallStore(t, StoreConfig{})
	save := filepath.Join(dir, "store.sdb")
	if err := Save(org, save); err != nil {
		t.Fatal(err)
	}

	w := R(0.1, 0.1, 0.6, 0.6)
	wantStats := org.Stats()
	wantIDs := queryIDs(org, w)
	wantKNN := org.NearestQuery(Pt(0.5, 0.5), 10)

	for _, cfg := range []StoreConfig{
		{},
		{Path: filepath.Join(dir, "pages.db")},
	} {
		name := "mem"
		if cfg.Path != "" {
			name = "file"
		}
		reopened, err := Open(save, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reopened.Stats(); got != wantStats {
			t.Fatalf("%s: reopened stats %+v, want %+v", name, got, wantStats)
		}
		if got := queryIDs(reopened, w); len(got) != len(wantIDs) {
			t.Fatalf("%s: reopened window answers %d, want %d", name, len(got), len(wantIDs))
		} else {
			for i := range got {
				if got[i] != wantIDs[i] {
					t.Fatalf("%s: reopened window answer %d differs", name, i)
				}
			}
		}
		got := reopened.NearestQuery(Pt(0.5, 0.5), 10)
		for i := range wantKNN.IDs {
			if got.IDs[i] != wantKNN.IDs[i] {
				t.Fatalf("%s: reopened 10-NN rank %d: %d, want %d", name, i, got.IDs[i], wantKNN.IDs[i])
			}
		}
		// The reopened store accepts further inserts.
		obj := NewObject(ObjectID(10001), NewPolyline([]Point{Pt(0.5, 0.5), Pt(0.51, 0.5)}), 500)
		reopened.Insert(obj, obj.Bounds())
		reopened.Flush()
		if err := CloseStore(reopened); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// TestSaveByteReproducible checks that saving the same store twice yields
// byte-identical files.
func TestSaveByteReproducible(t *testing.T) {
	dir := t.TempDir()
	org := buildSmallStore(t, StoreConfig{BuddySizes: 3})
	p1, p2 := filepath.Join(dir, "a.sdb"), filepath.Join(dir, "b.sdb")
	if err := Save(org, p1); err != nil {
		t.Fatal(err)
	}
	if err := Save(org, p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two saves of the same store differ")
	}
}

// TestOpenBrokenSnapshot drives Open through the shared snaptest table: a
// valid snapshot truncated at (and inside) every section boundary, bit flips
// anywhere in header or payload, a lying length field, and trailing garbage
// must all yield a descriptive error — never a panic and never a store. The
// sdbd command tests route the same table through the daemon's -load path.
func TestOpenBrokenSnapshot(t *testing.T) {
	dir := t.TempDir()
	org := buildSmallStore(t, StoreConfig{})
	save := filepath.Join(dir, "store.sdb")
	if err := Save(org, save); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(save)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= snapshot.HeaderSize {
		t.Fatalf("snapshot implausibly small: %d bytes", len(full))
	}

	for _, tc := range snaptest.All(len(full) - snapshot.HeaderSize) {
		t.Run(tc.Name, func(t *testing.T) {
			p := filepath.Join(dir, "broken.sdb")
			if err := os.WriteFile(p, tc.Mutate(full), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Open(p, StoreConfig{})
			if err == nil {
				t.Fatalf("Open of a broken snapshot (%s) succeeded (%v)", tc.Name, got.Name())
			}
			if !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("error %q does not contain %q", err, tc.Want)
			}
		})
	}
}

// TestOpenErrors checks the failure modes of Open.
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.sdb"), StoreConfig{}); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	junk := filepath.Join(dir, "junk.sdb")
	if err := os.WriteFile(junk, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk, StoreConfig{}); err == nil {
		t.Fatal("Open of a junk file succeeded")
	}

	// A file-backed Open needs a fresh backing file: reusing one that
	// already holds pages must fail rather than silently mix two stores.
	org := buildSmallStore(t, StoreConfig{})
	save := filepath.Join(dir, "store.sdb")
	if err := Save(org, save); err != nil {
		t.Fatal(err)
	}
	used := filepath.Join(dir, "used.db")
	first, err := Open(save, StoreConfig{Path: used})
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseStore(first); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(save, StoreConfig{Path: used}); err == nil {
		t.Fatal("Open onto a non-empty backing file succeeded")
	}

	if _, err := Open(save, StoreConfig{BufferPolicy: "fifo"}); err == nil {
		t.Fatal("Open with an unknown buffer policy succeeded")
	}
}

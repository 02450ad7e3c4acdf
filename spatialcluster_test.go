package spatialcluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	sc "spatialcluster"
	"spatialcluster/internal/store"
)

// TestPublicAPIRoundTrip exercises the façade end to end: build each store
// kind, insert objects, query, and join.
func TestPublicAPIRoundTrip(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 9})
	stores := map[string]sc.Organization{
		"secondary": sc.NewSecondaryStore(sc.StoreConfig{BufferPages: 128}),
		"primary":   sc.NewPrimaryStore(sc.StoreConfig{BufferPages: 128}),
		"cluster": sc.NewClusterStore(sc.StoreConfig{
			BufferPages: 128, SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3,
		}),
	}
	for name, s := range stores {
		for i, o := range ds.Objects {
			s.Insert(o, ds.MBRs[i])
		}
		s.Flush()
		res := s.WindowQuery(sc.R(0, 0, 1, 1), sc.TechComplete)
		if len(res.IDs) != len(ds.Objects) {
			t.Fatalf("%s: full-space query returned %d of %d", name, len(res.IDs), len(ds.Objects))
		}
		if s.Stats().Objects != len(ds.Objects) {
			t.Fatalf("%s: stats lost objects", name)
		}
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	p := sc.DefaultDiskParams()
	if p.SeekMS != 9 || p.LatencyMS != 6 || p.TransferMS != 1 {
		t.Fatalf("paper disk parameters expected, got %+v", p)
	}
	if sc.PageSize != 4096 {
		t.Fatal("page size must be 4 KB")
	}
	if sc.ExactTestMS != 0.75 {
		t.Fatal("exact test cost must be 0.75 ms")
	}
	// Zero-value config must produce a working store.
	s := sc.NewClusterStore(sc.StoreConfig{})
	obj := sc.NewObject(1, sc.NewPolyline([]sc.Point{sc.Pt(0.1, 0.1), sc.Pt(0.2, 0.2)}), 100)
	s.Insert(obj, obj.Bounds())
	s.Flush()
	if res := s.PointQuery(sc.Pt(0.15, 0.15)); len(res.IDs) != 1 {
		t.Fatalf("point query on the diagonal returned %d answers", len(res.IDs))
	}
}

func TestPublicAPIJoin(t *testing.T) {
	build := func(spec sc.MapSpec) sc.Organization {
		ds := sc.GenerateMap(spec)
		s := sc.NewClusterStore(sc.StoreConfig{BufferPages: 128, SmaxBytes: spec.SmaxBytes()})
		for i, o := range ds.Objects {
			s.Insert(o, ds.MBRs[i])
		}
		s.Flush()
		return s
	}
	r := build(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 9, MBRScale: 4})
	s := build(sc.MapSpec{Map: sc.Map2, Series: sc.SeriesA, Scale: 512, Seed: 9, MBRScale: 4})
	res := sc.RunJoin(r, s, sc.JoinConfig{BufferPages: 200, Technique: sc.TechComplete})
	if res.MBRPairs == 0 {
		t.Fatal("join found no candidate pairs")
	}
	if res.ResultPairs > res.MBRPairs {
		t.Fatal("refinement cannot add pairs")
	}
	if res.TotalTimeMS(sc.DefaultDiskParams()) <= 0 {
		t.Fatal("join reported no cost")
	}
}

func TestPublicBulkLoad(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 9})
	s := sc.NewClusterStore(sc.StoreConfig{BufferPages: 128, SmaxBytes: ds.Spec.SmaxBytes()})
	sc.BulkLoadHilbert(s, ds.Objects, ds.MBRs, 0.9)
	res := s.WindowQuery(sc.R(0, 0, 1, 1), sc.TechComplete)
	if len(res.IDs) != len(ds.Objects) {
		t.Fatalf("bulk-loaded store answered %d of %d", len(res.IDs), len(ds.Objects))
	}
	// Bulk loading a non-cluster store panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-cluster store")
		}
	}()
	sc.BulkLoadHilbert(sc.NewSecondaryStore(sc.StoreConfig{}), ds.Objects, ds.MBRs, 0.9)
}

func TestPublicHilbertIndex(t *testing.T) {
	if sc.HilbertIndex(sc.Pt(0, 0)) != 0 {
		t.Fatal("origin must map to index 0")
	}
	if sc.HilbertIndex(sc.Pt(0.1, 0.1)) == sc.HilbertIndex(sc.Pt(0.9, 0.9)) {
		t.Fatal("distant points must map to different indices")
	}
}

func TestPublicGeometry(t *testing.T) {
	pg := sc.NewPolygon([]sc.Point{sc.Pt(0, 0), sc.Pt(1, 0), sc.Pt(1, 1)})
	line := sc.NewPolyline([]sc.Point{sc.Pt(0.2, 0.1), sc.Pt(0.9, 0.5)})
	if !sc.Decompose(pg).Intersects(sc.Decompose(line)) {
		t.Fatal("decomposed intersection failed")
	}
	if !pg.IntersectsRect(sc.R(0.4, 0.1, 0.6, 0.3)) {
		t.Fatal("polygon/rect intersection failed")
	}
}

// TestPublicAPIUpdateEngine exercises Delete, Update and Recluster through
// the façade.
func TestPublicAPIUpdateEngine(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 9})
	s := sc.NewClusterStore(sc.StoreConfig{
		BufferPages: 128, SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: 3,
	})
	for i, o := range ds.Objects {
		s.Insert(o, ds.MBRs[i])
	}
	s.Flush()

	n := len(ds.Objects)
	for _, o := range ds.Objects[:n/3] {
		if !s.Delete(o.ID) {
			t.Fatalf("delete %d failed", o.ID)
		}
	}
	moved := sc.NewObject(ds.Objects[n-1].ID, sc.NewPolyline(
		[]sc.Point{sc.Pt(0.9, 0.9), sc.Pt(0.95, 0.95)}), 200)
	if !s.Update(moved, moved.Bounds()) {
		t.Fatal("update failed")
	}
	st := s.Stats()
	if st.Objects != n-n/3 || st.DeadBytes == 0 {
		t.Fatalf("unexpected stats after churn: %+v", st)
	}

	repacked, rebuilt, err := sc.Recluster(s, "threshold")
	if err != nil {
		t.Fatal(err)
	}
	if repacked == 0 && !rebuilt {
		t.Fatal("reclustering did nothing on a heavily fragmented store")
	}
	if after := s.Stats(); after.DeadBytes >= st.DeadBytes {
		t.Fatalf("dead bytes did not shrink: %d -> %d", st.DeadBytes, after.DeadBytes)
	}
	if _, _, err := sc.Recluster(s, "bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// Non-cluster organizations are a no-op.
	if rp, rb, err := sc.Recluster(sc.NewSecondaryStore(sc.StoreConfig{}), "threshold"); err != nil || rp != 0 || rb {
		t.Fatalf("secondary recluster: %d %v %v", rp, rb, err)
	}
	res := s.WindowQuery(sc.R(0, 0, 1, 1), sc.TechComplete)
	if len(res.IDs) != n-n/3 {
		t.Fatalf("full-space query after churn returned %d, want %d", len(res.IDs), n-n/3)
	}
}

// TestPublicAPINearest exercises the k-NN engine through the façade: every
// store kind returns the same ordered answer list, serially and from queries
// run on goroutines of their own.
func TestPublicAPINearest(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 9})
	stores := []sc.Organization{
		sc.NewSecondaryStore(sc.StoreConfig{BufferPages: 128}),
		sc.NewPrimaryStore(sc.StoreConfig{BufferPages: 128}),
		sc.NewClusterStore(sc.StoreConfig{BufferPages: 128, SmaxBytes: ds.Spec.SmaxBytes()}),
	}
	for _, s := range stores {
		for i, o := range ds.Objects {
			s.Insert(o, ds.MBRs[i])
		}
		s.Flush()
	}

	pt := sc.Pt(0.5, 0.5)
	want := stores[0].NearestQuery(pt, 10)
	if len(want.IDs) != 10 || len(want.Dists) != 10 {
		t.Fatalf("10-NN returned %d ids, %d dists", len(want.IDs), len(want.Dists))
	}
	for i := 1; i < 10; i++ {
		if want.Dists[i] < want.Dists[i-1] {
			t.Fatalf("distances not ascending: %v", want.Dists)
		}
	}
	for _, s := range stores[1:] {
		got := s.NearestQuery(pt, 10)
		for i := range want.IDs {
			if got.IDs[i] != want.IDs[i] {
				t.Fatalf("%s disagrees with %s at rank %d: %d vs %d",
					s.Name(), stores[0].Name(), i, got.IDs[i], want.IDs[i])
			}
		}
	}

	pts := []sc.Point{pt, sc.Pt(0.2, 0.8), sc.Pt(0.9, 0.1)}
	concurrent := make([]sc.NearestResult, len(pts))
	var wg sync.WaitGroup
	for i, p := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = stores[2].NearestQuery(p, 5)
		}()
	}
	wg.Wait()
	for i, p := range pts {
		if got, want := concurrent[i].IDs, stores[2].NearestQuery(p, 5).IDs; !slices.Equal(got, want) {
			t.Fatalf("concurrent 5-NN of %v answers %v, serial %v", p, got, want)
		}
	}
}

// probeAnswers answers a seeded window/point/k-NN stream: window and point
// answers as sorted sets, k-NN answers in rank order.
func probeAnswers(org sc.Organization, ws []sc.Rect, pts []sc.Point) [][]sc.ObjectID {
	var out [][]sc.ObjectID
	sorted := func(ids []sc.ObjectID) []sc.ObjectID {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for _, w := range ws {
		out = append(out, sorted(org.WindowQuery(w, sc.TechSLM).IDs))
	}
	for _, p := range pts {
		out = append(out, sorted(org.PointQuery(p).IDs), org.NearestQuery(p, 5).IDs)
	}
	return out
}

// referenceBuild is the reference construction the builder is held
// against: store.NewEnv and the organization constructors, in memory, LRU,
// the objects inserted in generation order and flushed. It returns the
// store and the modelled cost of its construction.
func referenceBuild(t *testing.T, kind string, buddy int, ds *sc.Dataset, bufPages int) (sc.Organization, sc.Cost) {
	t.Helper()
	env := store.NewEnv(bufPages)
	var org store.Organization
	switch kind {
	case "secondary":
		org = store.NewSecondary(env)
	case "primary":
		org = store.NewPrimary(env)
	default:
		org = store.NewCluster(env, store.ClusterConfig{SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: buddy})
	}
	env.Disk.ResetCost()
	for i, o := range ds.Objects {
		if err := org.Insert(o, ds.MBRs[i]); err != nil {
			t.Fatalf("reference %s: %v", kind, err)
		}
	}
	org.Flush()
	env.Buf.Clear()
	return org, env.Disk.Cost()
}

// TestNewStoreMatchesExpBuild holds the one builder against the reference
// construction (referenceBuild: store.NewEnv and the store constructors, in
// memory, LRU), for every organization on every backend and buffer policy:
// same Stats, same answers, and the same modelled construction cost — which
// is a function of the workload and the buffer policy, never of the backend.
func TestNewStoreMatchesExpBuild(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 256, Seed: 9})
	ws, pts := ds.Windows(0.01, 10, 3), ds.Points(10, 4)
	const buf = 64
	for _, o := range []struct {
		kind  string
		buddy int
	}{
		{"secondary", 0},
		{"primary", 0},
		{"cluster", 0},
		{"cluster", 3},
	} {
		ref, refCost := referenceBuild(t, o.kind, o.buddy, ds, buf)
		refStats, want := ref.Stats(), probeAnswers(ref, ws, pts)
		for _, pol := range []string{"lru", "2q"} {
			polCost := refCost // what the policy's first backend charged; LRU's must be the reference's
			for i, backend := range []string{"mem", "file"} {
				name := fmt.Sprintf("%s(buddy %d)/%s/%s", o.kind, o.buddy, pol, backend)
				cfg := sc.StoreConfig{
					BufferPages: buf, BufferPolicy: pol,
					SmaxBytes: ds.Spec.SmaxBytes(), BuddySizes: o.buddy,
				}
				if backend == "file" {
					cfg.Path = filepath.Join(t.TempDir(), "pages.db")
				}
				org, err := sc.NewStore(o.kind, cfg, ds.Objects, ds.MBRs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cost := org.Env().Disk.Cost()
				if i == 0 && pol != "lru" {
					polCost = cost
				}
				if cost != polCost {
					t.Errorf("%s: construction cost %+v, want %+v", name, cost, polCost)
				}
				if st := org.Stats(); st != refStats {
					t.Errorf("%s: Stats %+v, want %+v", name, st, refStats)
				}
				if got := probeAnswers(org, ws, pts); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: answers differ from the reference's", name)
				}
				if err := sc.CloseStore(org); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}
}

// TestNewStoreRefusesUsedPageFile: the page file is scratch, so a second
// build on a Path that an earlier store used is an error and leaves the file
// as it was, rather than growing a second store on top of the first one's
// pages.
func TestNewStoreRefusesUsedPageFile(t *testing.T) {
	ds := sc.GenerateMap(sc.MapSpec{Map: sc.Map1, Series: sc.SeriesA, Scale: 512, Seed: 3})
	cfg := sc.StoreConfig{
		Path: filepath.Join(t.TempDir(), "pages.db"), SmaxBytes: ds.Spec.SmaxBytes(),
	}
	org, err := sc.NewStore("cluster", cfg, ds.Objects, ds.MBRs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CloseStore(org); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(cfg.Path)
	if err != nil || len(before) == 0 {
		t.Fatalf("first build left %d bytes (%v)", len(before), err)
	}
	if again, err := sc.NewStore("cluster", cfg, ds.Objects, ds.MBRs); err == nil {
		sc.CloseStore(again)
		t.Error("NewStore on a used page file succeeded")
	}
	after, err := os.ReadFile(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the refused build changed the page file: %d bytes, was %d", len(after), len(before))
	}
}

// TestNewStoreMisconfiguration: everything the CLIs used to check before
// building is an error of the builder, marked os.ErrInvalid, raised before
// any file is created — never a panic.
func TestNewStoreMisconfiguration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	for name, c := range map[string]struct {
		kind string
		cfg  sc.StoreConfig
	}{
		"unknown organization":  {"tertiary", sc.StoreConfig{}},
		"unknown buffer policy": {"cluster", sc.StoreConfig{BufferPolicy: "clock", Path: path}},
		"wal with page file":    {"cluster", sc.StoreConfig{Path: path, WALPath: filepath.Join(t.TempDir(), "wal")}},
	} {
		org, err := sc.NewStore(c.kind, c.cfg, nil, nil)
		if org != nil || !errors.Is(err, os.ErrInvalid) {
			t.Errorf("%s: NewStore = %v, %v; want an os.ErrInvalid error", name, org, err)
		}
		if _, serr := os.Stat(path); serr == nil {
			t.Fatalf("%s: the backing file was created before the config was refused", name)
		}
	}
	// Open and RecoverStore check the same config, before they read anything.
	if _, err := sc.Open(filepath.Join(t.TempDir(), "missing.sdb"), sc.StoreConfig{BufferPolicy: "clock"}); !errors.Is(err, os.ErrInvalid) {
		t.Errorf("Open with an unknown buffer policy: %v", err)
	}
	if _, _, err := sc.RecoverStore(sc.StoreConfig{WALPath: t.TempDir(), Path: path}); !errors.Is(err, os.ErrInvalid) {
		t.Errorf("RecoverStore with a page file: %v", err)
	}
	// A runtime failure is not a misconfiguration.
	if _, err := sc.NewStore("cluster", sc.StoreConfig{Path: t.TempDir()}, nil, nil); err == nil || errors.Is(err, os.ErrInvalid) {
		t.Errorf("NewStore on a directory path: %v, want a runtime error", err)
	}
}

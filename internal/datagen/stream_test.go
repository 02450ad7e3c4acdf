package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestStreamDeterministic: equal specs yield identical streams, a different
// seed a different one; the kind mix follows the fixed shares; the windows
// and the points are the Windows and Points pools, each consumed in order.
func TestStreamDeterministic(t *testing.T) {
	ds := Generate(Spec{Map: Map1, Series: SeriesA, Scale: 2048, Seed: 2})
	spec := StreamSpec{N: 500, WindowArea: 0.001, K: 10, Seed: 7}
	a, b := ds.Stream(spec), ds.Stream(spec)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("stream lengths %d, %d", len(a), len(b))
	}
	counts := map[OpKind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams differ at %d", i)
		}
		counts[a[i].Kind]++
		if a[i].Kind == OpKNN && a[i].K != 10 {
			t.Fatalf("k = %d, want 10", a[i].K)
		}
	}
	// 0.5/0.25/0.25: windows must dominate, nothing absent, nothing else.
	if counts[OpWindow] <= counts[OpPoint] || counts[OpWindow] <= counts[OpKNN] ||
		counts[OpPoint] == 0 || counts[OpKNN] == 0 || len(counts) != 3 {
		t.Fatalf("unexpected kind mix %v", counts)
	}

	spec.Seed = 8
	if c := ds.Stream(spec); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced the same stream head")
	}

	spec.Seed = 7
	ws, pts := ds.Windows(spec.WindowArea, spec.N, spec.Seed+1), ds.Points(spec.N, spec.Seed+2)
	for _, op := range a {
		if op.Kind == OpWindow {
			if op.Window != ws[0] {
				t.Fatalf("window %v is not the pool's next, %v", op.Window, ws[0])
			}
			ws = ws[1:]
		} else {
			if op.Point != pts[0] {
				t.Fatalf("point %v is not the pool's next, %v", op.Point, pts[0])
			}
			pts = pts[1:]
		}
	}
}

// streamSum is the checksum of the golden test: kind and arguments of every
// query, in order.
func streamSum(ops []Op) uint64 {
	h := fnv.New64a()
	put := func(kind byte, vs ...float64) {
		h.Write([]byte{kind})
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case OpWindow:
			put('w', op.Window.MinX, op.Window.MinY, op.Window.MaxX, op.Window.MaxY)
		case OpPoint:
			put('p', op.Point.X, op.Point.Y)
		case OpKNN:
			put('k', op.Point.X, op.Point.Y, float64(op.K))
		}
	}
	return h.Sum64()
}

// TestStreamGolden pins every stream the experiments and the router tests
// draw — (dataset scale and seed, stream spec) — to the checksum the retired
// internal/loadgen generator produced for it at the commit before the move:
// the same RNG draws in the same order, so the modelled columns of
// BENCH_server.json and BENCH_shard.json cannot shift.
func TestStreamGolden(t *testing.T) {
	for _, c := range []struct {
		scale int
		seed  int64
		spec  StreamSpec
		want  uint64
	}{
		{8, 0, StreamSpec{360, 0.001, 10, 4}, 0xf6e648aa1a6bac6e},  // exp server
		{8, 0, StreamSpec{240, 0.001, 10, 6}, 0xf08033a5a88e8c5b},  // exp shard
		{64, 0, StreamSpec{120, 0.001, 10, 4}, 0x3e509bdcb264573},  // exp server -smoke
		{64, 0, StreamSpec{80, 0.001, 10, 6}, 0x6445f7fe00708159},  // exp shard -smoke
		{256, 7, StreamSpec{48, 0.004, 9, 21}, 0x599dd65bfd1afde0}, // router differential
		{256, 7, StreamSpec{36, 0.004, 9, 27}, 0x143f932dc1e3a849}, // router binary differential
		{512, 9, StreamSpec{30, 0.01, 7, 31}, 0xfc070611893d35b},   // router empty shard
		{256, 17, StreamSpec{12, 0.01, 7, 23}, 0xed6ad3d4eb533a50}, // router trace propagation
	} {
		ds := Generate(Spec{Map: Map1, Series: SeriesA, Scale: c.scale, Seed: c.seed})
		if got := streamSum(ds.Stream(c.spec)); got != c.want {
			t.Errorf("scale %d seed %d %+v: checksum %#x, want %#x", c.scale, c.seed, c.spec, got, c.want)
		}
	}
}

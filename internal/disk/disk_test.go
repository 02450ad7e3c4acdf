package disk

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.SeekMS != 9 || p.LatencyMS != 6 || p.TransferMS != 1 {
		t.Fatalf("default params = %+v, want 9/6/1 (paper section 5.1)", p)
	}
	// l = 6/1 - 0.5 = 5.5 -> 5
	if l := p.SLMGapLength(); l != 5 {
		t.Fatalf("SLM gap length = %d, want 5", l)
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Seeks: 2, Rotations: 3, PagesRead: 4, PagesWritten: 1, ReadRequests: 2, WriteRequests: 1}
	b := Cost{Seeks: 1, Rotations: 1, PagesRead: 2, PagesWritten: 2, ReadRequests: 1, WriteRequests: 2}
	sum := a.Add(b)
	if sum.Seeks != 3 || sum.Rotations != 4 || sum.PagesRead != 6 || sum.PagesWritten != 3 {
		t.Fatalf("Add = %+v", sum)
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Sub did not invert Add: %+v", got)
	}
	if a.Pages() != 5 {
		t.Fatalf("Pages = %d", a.Pages())
	}
	// 2*9 + 3*6 + 5*1 = 41 ms
	if ms := a.TimeMS(DefaultParams()); ms != 41 {
		t.Fatalf("TimeMS = %g, want 41", ms)
	}
	if s := a.TimeSec(DefaultParams()); s != 0.041 {
		t.Fatalf("TimeSec = %g", s)
	}
	if a.String() == "" {
		t.Fatal("String must be non-empty")
	}
}

func TestDiskReadWriteRoundTrip(t *testing.T) {
	d := NewDefault()
	start := d.Grow(4)
	if start != 0 || d.NumPages() != 4 {
		t.Fatalf("Grow: start=%d pages=%d", start, d.NumPages())
	}
	data := [][]byte{[]byte("alpha"), []byte("beta"), nil, []byte("delta")}
	d.WriteRun(start, data, nil)
	got := make([][]byte, 4)
	d.ReadRun(start, got, false, nil)
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("page %d: got %q want %q", i, got[i], data[i])
		}
	}
	// A write hands its page over: the memory backend keeps the slice
	// itself, and only Poke stores a copy.
	buf := []byte("handed-over")
	d.WritePage(1, buf)
	if got := d.Peek(1); &got[0] != &buf[0] {
		t.Fatal("the memory backend must keep the written slice, not a copy")
	}
	poked := []byte("poked")
	d.Poke(2, poked)
	poked[0] = 'X'
	if got := d.Peek(2); !bytes.Equal(got, []byte("poked")) {
		t.Fatalf("Poke must store a copy of the caller's buffer, page reads %q", got)
	}
}

func TestDiskCostCharging(t *testing.T) {
	d := NewDefault()
	d.Grow(100)

	// First random read: seek + latency + 3 transfers.
	d.ReadRun(10, make([][]byte, 3), false, nil)
	c := d.Cost()
	if c.Seeks != 1 || c.Rotations != 1 || c.PagesRead != 3 || c.ReadRequests != 1 {
		t.Fatalf("first read cost = %+v", c)
	}

	// A fresh read always pays seek and latency, even at the head position
	// (the paper's tcompl formula has no streaming discount for reads).
	d.ReadRun(13, make([][]byte, 2), false, nil)
	c = d.Cost()
	if c.Seeks != 2 || c.Rotations != 2 || c.PagesRead != 5 {
		t.Fatalf("follow-up read cost = %+v", c)
	}

	// Chained read elsewhere in the same unit: latency only.
	d.ReadRun(20, make([][]byte, 1), true, nil)
	c = d.Cost()
	if c.Seeks != 2 || c.Rotations != 3 || c.PagesRead != 6 {
		t.Fatalf("chained read cost = %+v", c)
	}

	// New random read: full seek + latency again.
	d.ReadRun(50, make([][]byte, 1), false, nil)
	c = d.Cost()
	if c.Seeks != 3 || c.Rotations != 4 {
		t.Fatalf("random read cost = %+v", c)
	}

	// Writes are charged like reads, except that a write continuing at the
	// head position streams for free (buffered sequential construction).
	d.WriteRun(80, [][]byte{nil, nil}, nil)
	c = d.Cost()
	if c.Seeks != 4 || c.Rotations != 5 || c.PagesWritten != 2 || c.WriteRequests != 1 {
		t.Fatalf("write cost = %+v", c)
	}
	d.WriteRun(82, [][]byte{nil}, nil) // streams on after the previous write
	c = d.Cost()
	if c.Seeks != 4 || c.Rotations != 5 || c.PagesWritten != 3 {
		t.Fatalf("streaming write cost = %+v", c)
	}

	d.ResetCost()
	if d.Cost() != (Cost{}) {
		t.Fatal("ResetCost must clear counters")
	}
}

func TestDiskHeadTracking(t *testing.T) {
	d := NewDefault()
	d.Grow(10)
	d.ReadRun(2, make([][]byte, 3), false, nil)
	if d.Head() != 5 {
		t.Fatalf("head = %d, want 5", d.Head())
	}
	d.WriteRun(5, [][]byte{nil}, nil) // streams on
	if got := d.Cost(); got.Seeks != 1 {
		t.Fatalf("sequential write after read must not seek: %+v", got)
	}
}

func TestDiskBoundsPanics(t *testing.T) {
	d := NewDefault()
	d.Grow(2)
	for name, f := range map[string]func(){
		"read past end":  func() { d.ReadRun(1, make([][]byte, 2), false, nil) },
		"negative start": func() { d.ReadRun(-1, make([][]byte, 1), false, nil) },
		"empty run":      func() { d.ReadRun(0, make([][]byte, 0), false, nil) },
		"oversize page":  func() { d.WritePage(0, make([]byte, PageSize+1)) },
		"peek range":     func() { d.Peek(5) },
		"poke range":     func() { d.Poke(5, nil) },
		"negative grow":  func() { d.Grow(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPlanSLMPaperExample reproduces Figure 9 of the paper: pages
// y n y y n n n y y n y y with l = 3. Reading through the short gaps costs
// 2 tl + 9 tt = 21 ms; reading only required pages costs 4 tl + 7 tt = 31 ms
// (the figure omits the common seek).
func TestPlanSLMPaperExample(t *testing.T) {
	requested := []PageID{0, 2, 3, 7, 8, 10, 11}
	p := Params{SeekMS: 0, LatencyMS: 6, TransferMS: 1}

	slm := PlanSLM(nil, append([]PageID(nil), requested...), 3)
	if len(slm) != 2 {
		t.Fatalf("SLM runs = %v, want 2 runs", slm)
	}
	if got := ScheduleCost(slm, p); got != 21 {
		t.Fatalf("SLM cost = %g, want 21 (2tl+9tt)", got)
	}
	if TotalPages(slm) != 9 {
		t.Fatalf("SLM pages = %d, want 9", TotalPages(slm))
	}

	req := PlanRequired(nil, append([]PageID(nil), requested...))
	if len(req) != 4 {
		t.Fatalf("required runs = %v, want 4 runs", req)
	}
	if got := ScheduleCost(req, p); got != 31 {
		t.Fatalf("required cost = %g, want 31 (4tl+7tt)", got)
	}
}

func TestPlanSLMEdgeCases(t *testing.T) {
	if got := PlanSLM(nil, nil, 5); got != nil {
		t.Fatalf("empty plan = %v", got)
	}
	// Duplicates and disorder are normalized.
	runs := PlanSLM(nil, []PageID{5, 3, 5, 4}, 1)
	if len(runs) != 1 || runs[0] != (Run{Start: 3, N: 3}) {
		t.Fatalf("normalized runs = %v", runs)
	}
	// l <= 0 degrades to adjacent-only merging.
	runs = PlanSLM(nil, []PageID{0, 2}, 0)
	if len(runs) != 2 {
		t.Fatalf("l=0 runs = %v", runs)
	}
	if !runs[0].Contains(0) || runs[0].Contains(1) {
		t.Fatal("Run.Contains misbehaves")
	}
}

// Property: the SLM schedule covers every requested page exactly once, never
// overlaps, and — with the exact break-even gap l = tl/tt + 1 (merge iff the
// gap transfers cost at most one rotational delay) — is never more expensive
// than either naive alternative (read-everything-in-one-span or
// read-only-required). The paper's l = tl/tt − ½ is within one page of this
// threshold; see TestPlanSLMPaperThresholdClose.
func TestQuickPlanSLMProperties(t *testing.T) {
	params := DefaultParams()
	l := int(params.LatencyMS/params.TransferMS) + 1
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rng.Seed(seed)
		n := 1 + rng.Intn(40)
		req := make([]PageID, n)
		for i := range req {
			req[i] = PageID(rng.Intn(100))
		}
		sorted := normalize(append([]PageID(nil), req...))
		runs := PlanSLM(nil, append([]PageID(nil), req...), l)

		// Coverage of every requested page, no overlapping runs, ordered.
		for i, r := range runs {
			if r.N <= 0 {
				return false
			}
			if i > 0 && runs[i-1].End() >= r.Start {
				return false
			}
		}
		for _, p := range sorted {
			ok := false
			for _, r := range runs {
				if r.Contains(p) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}

		cost := ScheduleCost(runs, params)
		span := Run{Start: sorted[0], N: int(sorted[len(sorted)-1]-sorted[0]) + 1}
		oneSpan := ScheduleCost([]Run{span}, params)
		required := ScheduleCost(PlanRequired(nil, append([]PageID(nil), req...)), params)
		const eps = 1e-9
		return cost <= oneSpan+eps && cost <= required+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The paper's gap formula stays within 2 pages of the exact dominance
// threshold for the default parameters, so its schedules are within one
// rotational delay of optimal per gap decision.
func TestPlanSLMPaperThresholdClose(t *testing.T) {
	p := DefaultParams()
	paper := p.SLMGapLength()
	exact := int(p.LatencyMS/p.TransferMS) + 1
	if diff := exact - paper; diff < 0 || diff > 2 {
		t.Fatalf("paper l=%d, exact l=%d: unexpectedly far apart", paper, exact)
	}
}

// TestThrottle covers the wall-clock throttle: off by default, sleeps at
// least the scaled modelled time when set, never affects the charged cost,
// and rejects nonsense factors.
func TestThrottle(t *testing.T) {
	d := New(Params{SeekMS: 4, LatencyMS: 2, TransferMS: 1})
	d.Grow(8)
	if d.Throttle() != 0 {
		t.Fatalf("default throttle %g, want 0", d.Throttle())
	}

	d.WriteRun(0, [][]byte{{1}, {2}}, nil) // unthrottled baseline
	costBefore := d.Cost()

	d.SetThrottle(1) // replay modelled time 1:1
	if d.Throttle() != 1 {
		t.Fatalf("throttle %g, want 1", d.Throttle())
	}
	start := time.Now()
	d.ReadRun(0, make([][]byte, 2), false, nil) // fresh read: ts + tl + 2*tt = 8 ms modelled
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("throttled read of 8 modelled ms took only %v", elapsed)
	}
	start = time.Now()
	d.WriteRun(4, [][]byte{{3}}, nil) // non-streaming write: ts + tl + tt = 7 ms
	if elapsed := time.Since(start); elapsed < 7*time.Millisecond {
		t.Fatalf("throttled write of 7 modelled ms took only %v", elapsed)
	}

	// The throttle must not change what is charged.
	d.SetThrottle(0)
	want := Cost{Seeks: 2, Rotations: 2, PagesRead: 2, PagesWritten: 1, ReadRequests: 1, WriteRequests: 1}
	if got := d.Cost().Sub(costBefore); got != want {
		t.Fatalf("throttled ops charged %+v, want %+v", got, want)
	}

	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetThrottle(%v) did not panic", bad)
				}
			}()
			d.SetThrottle(bad)
		}()
	}
}

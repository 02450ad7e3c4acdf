package disk

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
)

// TestPlanSLMTable pins down the gap/break-even boundaries and the l < 1
// degradation for duplicate-heavy inputs.
func TestPlanSLMTable(t *testing.T) {
	cases := []struct {
		name      string
		requested []PageID
		l         int
		want      []Run
	}{
		{
			name: "empty", requested: nil, l: 5, want: nil,
		},
		{
			name: "single", requested: []PageID{7}, l: 5,
			want: []Run{{Start: 7, N: 1}},
		},
		{
			name: "gap below break-even merges", requested: []PageID{0, 3}, l: 3,
			want: []Run{{Start: 0, N: 4}}, // gap 2 < l=3: read through
		},
		{
			name: "gap at break-even splits", requested: []PageID{0, 3}, l: 2,
			want: []Run{{Start: 0, N: 1}, {Start: 3, N: 1}}, // gap 2 >= l=2
		},
		{
			name: "gap exactly l-1 merges", requested: []PageID{10, 14}, l: 4,
			want: []Run{{Start: 10, N: 5}}, // gap 3 = l-1: largest read-through
		},
		{
			name: "adjacent pages always share a run", requested: []PageID{4, 5, 6}, l: 0,
			want: []Run{{Start: 4, N: 3}},
		},
		{
			name: "l=0 degrades to maximal runs", requested: []PageID{0, 2, 3}, l: 0,
			want: []Run{{Start: 0, N: 1}, {Start: 2, N: 2}},
		},
		{
			name: "negative l degrades to maximal runs", requested: []PageID{0, 1, 5}, l: -3,
			want: []Run{{Start: 0, N: 2}, {Start: 5, N: 1}},
		},
		{
			name: "duplicate-heavy input collapses", requested: []PageID{9, 9, 9, 9, 9}, l: 0,
			want: []Run{{Start: 9, N: 1}},
		},
		{
			name:      "duplicates across runs with l=0",
			requested: []PageID{3, 7, 3, 7, 8, 3, 8}, l: 0,
			want: []Run{{Start: 3, N: 1}, {Start: 7, N: 2}},
		},
		{
			name:      "unsorted duplicates with read-through",
			requested: []PageID{12, 4, 12, 6, 4}, l: 3,
			want: []Run{{Start: 4, N: 3}, {Start: 12, N: 1}}, // gap 5 >= 3 splits
		},
		{
			name: "paper default l=5 reads through gap 4", requested: []PageID{0, 5, 11}, l: 5,
			want: []Run{{Start: 0, N: 6}, {Start: 11, N: 1}}, // gaps 4 and 5
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PlanSLM(nil, tc.requested, tc.l)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("PlanSLM(nil, %v, %d) = %v, want %v", tc.requested, tc.l, got, tc.want)
			}
		})
	}
}

// TestPlanSLMDoesNotMutateInput: the planner must leave the caller's request
// list untouched — callers iterate it after planning.
func TestPlanSLMDoesNotMutateInput(t *testing.T) {
	requested := []PageID{9, 2, 9, 4, 2, 0}
	orig := append([]PageID(nil), requested...)
	PlanSLM(nil, requested, 3)
	if !reflect.DeepEqual(requested, orig) {
		t.Fatalf("PlanSLM mutated its input: %v, want %v", requested, orig)
	}
	PlanRequired(nil, requested)
	if !reflect.DeepEqual(requested, orig) {
		t.Fatalf("PlanRequired mutated its input: %v, want %v", requested, orig)
	}
}

// TestPlanSLMGapLengthBoundary ties the planner to the parameter formula:
// with the paper's parameters l = 6/1 - 0.5 -> 5, so a 4-page gap is read
// through and a 5-page gap breaks the request.
func TestPlanSLMGapLengthBoundary(t *testing.T) {
	l := DefaultParams().SLMGapLength()
	if l != 5 {
		t.Fatalf("default SLM gap length = %d, want 5", l)
	}
	merged := PlanSLM(nil, []PageID{0, 5}, l) // gap 4
	if len(merged) != 1 || merged[0].N != 6 {
		t.Fatalf("gap l-1 must merge: %v", merged)
	}
	split := PlanSLM(nil, []PageID{0, 6}, l) // gap 5
	if len(split) != 2 {
		t.Fatalf("gap l must split: %v", split)
	}
	// Break-even in modelled time: reading through a gap of g pages costs
	// g extra transfers, splitting costs one extra rotational delay, so
	// read-through wins strictly below tl/tt = 6 and splitting wins above.
	p := DefaultParams()
	if ScheduleCost(merged, p) >= ScheduleCost([]Run{{0, 1}, {5, 1}}, p) {
		t.Fatal("read-through of a gap below break-even must be strictly cheaper")
	}
	wide := PlanSLM(nil, []PageID{0, 7}, l) // gap 6 = tl/tt: splitting wins
	if len(wide) != 2 {
		t.Fatalf("gap above l must split: %v", wide)
	}
	if ScheduleCost(wide, p) > ScheduleCost([]Run{{0, 8}}, p) {
		t.Fatal("split above break-even must not be more expensive")
	}
}

// refPlanSLM is the planner before it appended to the caller's slice and
// before it stopped copying sorted input: clone, sort, compact, then merge
// every gap shorter than l.
func refPlanSLM(requested []PageID, l int) []Run {
	pages := slices.Clone(requested)
	slices.Sort(pages)
	pages = slices.Compact(pages)
	if len(pages) == 0 {
		return nil
	}
	if l < 1 {
		l = 1
	}
	runs := []Run{{Start: pages[0], N: 1}}
	for _, p := range pages[1:] {
		cur := &runs[len(runs)-1]
		if gap := int(p - cur.End()); gap < l {
			cur.N += gap + 1
		} else {
			runs = append(runs, Run{Start: p, N: 1})
		}
	}
	return runs
}

// TestPlannersMatchReference holds PlanSLM and PlanRequired to refPlanSLM
// over random unsorted, duplicate-heavy, empty and already normalized
// requests and every kind of gap length: the same runs, appended after
// whatever the caller's slice held, and the request left as it was.
func TestPlannersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ls := []int{-1, 0, 1, 2, DefaultParams().SLMGapLength(), 1000}
	for iter := 0; iter < 4000; iter++ {
		req := make([]PageID, rng.Intn(24))
		for i := range req {
			req[i] = PageID(rng.Intn(80))
		}
		switch iter % 4 {
		case 1: // normalized, as buffer.Missing returns it
			slices.Sort(req)
			req = slices.Compact(req)
		case 2:
			req = req[:0]
		case 3: // duplicate-heavy
			for i := range req {
				req[i] %= 6
			}
		}
		orig := slices.Clone(req)
		prefix := []Run{{Start: 500, N: 2}}
		for _, l := range ls {
			got := PlanSLM(slices.Clone(prefix), req, l)
			if want := refPlanSLM(req, l); !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
				t.Fatalf("PlanSLM(%v, %v, %d) = %v, want %v after the prefix", prefix, req, l, got, want)
			}
		}
		if got, want := PlanRequired(slices.Clone(prefix), req), refPlanSLM(req, 1); !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
			t.Fatalf("PlanRequired(%v, %v) = %v, want %v after the prefix", prefix, req, got, want)
		}
		if !slices.Equal(req, orig) {
			t.Fatalf("the planners modified their input: %v, was %v", req, orig)
		}
	}
}

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestPlanAllocs: planning a normalized request into a slice with room — what
// a query does with buffer.Missing's output and its scratch — allocates
// nothing, and neither does a read into a caller's page slice.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	req := []PageID{1, 2, 5, 9, 30, 31, 32, 60}
	runs := make([]Run, 0, len(req))
	if a := testing.AllocsPerRun(100, func() { runs = PlanSLM(runs[:0], req, 5) }); a != 0 {
		t.Errorf("PlanSLM allocates %v times on normalized input, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { runs = PlanRequired(runs[:0], req) }); a != 0 {
		t.Errorf("PlanRequired allocates %v times on normalized input, want 0", a)
	}
	d := NewDefault()
	d.Grow(64)
	pages := make([][]byte, 8)
	if a := testing.AllocsPerRun(100, func() { d.ReadRun(3, pages, false, &Tally{}) }); a != 0 {
		t.Errorf("Disk.ReadRun into the caller's page slice allocates %v times, want 0", a)
	}
}

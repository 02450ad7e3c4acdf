package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQueryStreamIsAFunctionOfTheSeed(t *testing.T) {
	ds := generateDataset(64)
	spec := querySpec{n: 480, windowArea: 0.001, k: 10, hotTenths: 9, hotspot: hotspotOf(ds)}
	a, b, c := genQueries(ds, spec, 7), genQueries(ds, spec, 7), genQueries(ds, spec, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different query streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same query stream")
	}
	// The stratified deck fixes the counts: 50/25/25, whatever the seed.
	var kinds [numOpKinds]int
	for _, o := range c {
		kinds[o.kind]++
	}
	if kinds[opWindow] != 240 || kinds[opPoint] != 120 || kinds[opKNN] != 120 {
		t.Fatalf("mix is %v, want 240 windows, 120 points, 120 k-NN", kinds)
	}
}

func TestMutationStreamIsAFunctionOfTheSeed(t *testing.T) {
	ds := generateDataset(64)
	gen := func(seed int64) []op { return newMutGen(ds, hotspotOf(ds), seed).take(400) }
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different mutation streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same mutation stream")
	}
}

// The mutation stream must only name live IDs and never reuse one: replaying
// it against a plain set must never miss.
func TestMutationStreamOnlyNamesLiveIDs(t *testing.T) {
	ds := generateDataset(64)
	live := make(map[uint64]bool)
	for _, o := range ds.Objects {
		live[uint64(o.ID)] = true
	}
	g := newMutGen(ds, hotspotOf(ds), 3)
	var kinds [numOpKinds]int
	for i, o := range g.take(2000) {
		kinds[o.kind]++
		switch o.kind {
		case opInsert:
			if live[uint64(o.obj.ID)] {
				t.Fatalf("op %d inserts live ID %d", i, o.obj.ID)
			}
			live[uint64(o.obj.ID)] = true
		case opUpdate:
			if !live[uint64(o.obj.ID)] {
				t.Fatalf("op %d updates absent ID %d", i, o.obj.ID)
			}
		case opDelete:
			if !live[uint64(o.id)] {
				t.Fatalf("op %d deletes absent ID %d", i, o.id)
			}
			delete(live, uint64(o.id))
		}
	}
	if kinds[opInsert] != 600 || kinds[opUpdate] != 800 || kinds[opDelete] != 600 {
		t.Fatalf("mix is %v, want 600 inserts, 800 updates, 600 deletes", kinds)
	}
	if len(live) != len(g.live) {
		t.Fatalf("generator tracks %d live objects, replay leaves %d", len(g.live), len(live))
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its argument")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// The median across rounds must ignore one slow round entirely.
func TestMedianOfRoundsIgnoresAnOutlier(t *testing.T) {
	rounds := []float64{1000, 1010, 990, 1005, 400, 995, 1002}
	if got := median(rounds); got != 1000 {
		t.Errorf("median of rounds = %v, want 1000", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping: cover 10..50)
	// and 60..70; the second child has a grandchild 25..45.
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "a", StartNS: 60, EndNS: 70},
		{ID: 5, Parent: 3, Name: "c", StartNS: 25, EndNS: 45},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if math.Abs(byName["a"]-30e-6) > 1e-15 || math.Abs(byName["root"]-50e-6) > 1e-15 {
		t.Errorf("self by name = %v", byName)
	}
	// A recorder builds the same shape.
	rec := newRecorder()
	root := rec.root("op", 7)
	child := rec.child("layer")
	rec.end(rec.childOf(child, "inner"))
	rec.end(child)
	rec.end(root)
	if got := rec.spans; len(got) != 3 || got[1].Parent != root || got[2].Parent != child || got[2].Op != 7 {
		t.Errorf("recorded %+v", got)
	}
	var none *recorder
	none.end(none.child("ignored")) // a nil recorder records nothing and does not crash
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("better %q of %s", m.Better, m.Name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s", m.Bound, m.Name)
		}
	}
}

// BENCHMARK.json repeats the tables of metrics.go and run.go for the driver.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is declared as %q: %q", i, got.Name, got.Why)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].on = nil
		}
		return out
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", file.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n%+v\n%+v", file.PerLayer, strip(perLayer))
	}
	if file.RunSeconds/secondsPerRound < 7 {
		t.Errorf("run_seconds %d gives fewer than 7 rounds", file.RunSeconds)
	}
}

// A smoke-sized traced run of every workload: the correctness gate passes and
// every declared metric is reported, finite, and non-zero where the
// workload runs the metric's layer.
func TestSmokeRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{workload: w.Name, seed: 1, rounds: 2, trace: true, outDir: t.TempDir(), sz: smokeSizes}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != 2*w.ops(smokeSizes) {
				t.Fatalf("correct %v, %d of %d failed: %s", rep.Correct, rep.Failed, rep.Attempted, rep.FirstErr)
			}
			for _, trace := range []bool{false, true} {
				res := resultOf(rep, trace)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics reported, %d declared", trace, len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v := res.Metrics[m.Name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s is %v", m.Name, v)
					}
					if v == 0 && m.measuredOn(w.Name) {
						t.Errorf("%s is 0 on a workload that runs its layer", m.Name)
					}
					if v != 0 && !m.measuredOn(w.Name) {
						t.Errorf("%s is %v on a workload said not to run its layer", m.Name, v)
					}
				}
			}
			if _, err := os.Stat(cfg.outDir + "/" + w.Name + ".trace.json"); err != nil {
				t.Errorf("no span file: %v", err)
			}
			// The ladder's self times add up to its top rung, and with the
			// unattributed share to the timed median.
			if w.durable {
				return
			}
			total := 0.0
			for _, r := range rep.Ladder {
				total += r.SelfP50MS
			}
			top := rep.Ladder[len(rep.Ladder)-1].P50MS
			lat50 := rep.EndToEnd["lat_p50_ms"]
			if math.Abs(total-top) > 1e-9 {
				t.Errorf("self times add up to %v ms, the top rung takes %v ms", total, top)
			}
			if got := total + rep.PerLayer["bench.unattributed_share"]*lat50; math.Abs(got-lat50) > 1e-9 {
				t.Errorf("self times plus the unattributed share give %v ms, lat_p50_ms is %v", got, lat50)
			}
		})
	}
}

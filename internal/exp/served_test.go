package exp

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/server"
)

func loopStream(n int, seed int64) []datagen.Op {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 2048, Seed: 2})
	return ds.Stream(datagen.StreamSpec{N: n, WindowArea: streamWindowArea, K: streamK, Seed: seed})
}

// TestClosedLoop: every request executes exactly once, on the client its
// index assigns it to; answers sum deterministically, errors are counted,
// concurrency is bounded by the client count.
func TestClosedLoop(t *testing.T) {
	ops := loopStream(200, 3)
	index := make(map[datagen.Op]int, len(ops))
	for i, op := range ops {
		index[op] = i
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	var cur, peak, calls atomic.Int64
	do := func(op datagen.Op) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		mu.Lock()
		seen[index[op]]++
		mu.Unlock()
		if calls.Add(1)%50 == 0 {
			return 0, errors.New("synthetic failure")
		}
		return 2, nil
	}
	l := closedLoop(do, ops, 8)
	if len(seen) != 200 || l.lat.Count() != 200 {
		t.Fatalf("%d distinct requests, %d samples, want 200", len(seen), l.lat.Count())
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("request %d executed %d times", i, n)
		}
	}
	if l.errors.Load() != 4 || l.answers.Load() != (200-4)*2 {
		t.Fatalf("errors %d answers %d, want 4 and %d", l.errors.Load(), l.answers.Load(), (200-4)*2)
	}
	if p := peak.Load(); p > 8 {
		t.Fatalf("observed %d concurrent requests with 8 clients", p)
	}
	if l.wall <= 0 {
		t.Fatalf("no wall-clock time measured")
	}

	// More clients than requests, and no requests at all, still terminate.
	if l := closedLoop(do, ops[:3], 8); l.lat.Count() != 3 {
		t.Fatalf("3 requests over 8 clients ran %d", l.lat.Count())
	}
	if l := closedLoop(do, nil, 8); l.lat.Count() != 0 {
		t.Fatalf("empty stream ran %d requests", l.lat.Count())
	}
}

// TestOpenLoop: all requests fire, the arrival schedule is a function of
// (length, rate, seed) alone, and the quantiles are ordered.
func TestOpenLoop(t *testing.T) {
	ops := loopStream(100, 4)
	var n atomic.Int64
	do := func(datagen.Op) (int, error) {
		n.Add(1)
		time.Sleep(100 * time.Microsecond)
		return 1, nil
	}
	l := openLoop(do, ops, 5000, 9)
	if got := n.Load(); got != 100 {
		t.Fatalf("executed %d of 100 requests", got)
	}
	if l.answers.Load() != 100 || l.errors.Load() != 0 {
		t.Fatalf("answers %d errors %d", l.answers.Load(), l.errors.Load())
	}
	lat := l.lat.Snapshot()
	if p50, p95, p99 := lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99); p50 > p95 || p95 > p99 || int64(p99) > lat.MaxNS {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v max=%dns", p50, p95, p99, lat.MaxNS)
	}
	// 100 arrivals at 5000/s ≈ 20 ms of schedule; the last arrival bounds
	// the wall.
	if l.wall < 5*time.Millisecond {
		t.Fatalf("open loop finished implausibly fast: %v", l.wall)
	}

	a, b := openSchedule(100, 5000, 9), openSchedule(100, 5000, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal (n, rate, seed) drew different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(100, 5000, 10)) {
		t.Fatal("a different seed drew the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

// TestMeasureSurvivesFailedScrape: a store whose /metrics cannot be scraped
// leaves the server-side wall_ fields of the run zero and everything the
// clients saw intact — observation must not break the measurement.
func TestMeasureSurvivesFailedScrape(t *testing.T) {
	ds := datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: 512, Seed: 2})
	ops := ds.Stream(datagen.StreamSpec{N: 40, WindowArea: streamWindowArea, K: streamK, Seed: 5})
	org := build(orgCluster, ds, spatialcluster.StoreConfig{BufferPages: 64}).Org
	want, _ := sumAnswers(applyAll(org, ops))
	client, stop := startServer(org, server.Config{})
	defer stop()
	drive := closed(ops, 4)

	run := measure(client, []*server.Client{client}, drive)
	if run.Requests != 40 || run.Answers != want || run.Errors != 0 || run.WallQPS <= 0 {
		t.Fatalf("measured run %+v, want 40 requests and %d answers", run, want)
	}
	if run.WallBatches == 0 || run.WallMeanBatch < 1 || run.WallHitRatio <= 0 {
		t.Fatalf("scraped run carries no server-side delta: %+v", run)
	}

	gone := httptest.NewServer(nil)
	gone.Close()
	down := server.NewClient(gone.URL, 1)
	if _, err := scrape([]*server.Client{client, down}); err == nil {
		t.Fatal("a scrape with a store down did not fail")
	}
	run = measure(client, []*server.Client{client, down}, drive)
	if run.Requests != 40 || run.Answers != want || run.Errors != 0 || run.WallQPS <= 0 {
		t.Fatalf("failed scrape altered the run: %+v", run)
	}
	if run.WallBatches != 0 || run.WallMeanBatch != 0 || run.WallHitRatio != 0 || run.WallModelIOSec != 0 {
		t.Fatalf("failed scrape left server-side fields set: %+v", run)
	}
}

package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/store"
)

// Kind classifies one generated request.
type Kind uint8

// The request kinds of a stream.
const (
	KindWindow Kind = iota
	KindPoint
	KindKNN
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "window"
	case KindPoint:
		return "point"
	case KindKNN:
		return "knn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request is one query of a load stream.
type Request struct {
	Kind   Kind
	Window geom.Rect       // KindWindow
	Tech   store.Technique // KindWindow
	Point  geom.Point      // KindPoint, KindKNN
	K      int             // KindKNN
}

// Do executes one request against the system under test and returns the
// number of answers. It must be safe for concurrent use.
type Do func(Request) (answers int, err error)

// StreamSpec describes a deterministic query stream over a dataset.
type StreamSpec struct {
	// N is the stream length.
	N int
	// WindowFrac/PointFrac/KNNFrac weight the request kinds; they are
	// normalized by their sum. All zero selects 0.5/0.25/0.25.
	WindowFrac, PointFrac, KNNFrac float64
	// WindowArea is the window area as a fraction of the data space
	// (default 0.001, the middle size of Figure 8).
	WindowArea float64
	// Tech is the read technique of the window queries.
	Tech store.Technique
	// K is the neighbor count of the k-NN queries (default 10).
	K int
	// Seed drives the whole stream.
	Seed int64
}

func (s StreamSpec) normalized() StreamSpec {
	if s.WindowFrac == 0 && s.PointFrac == 0 && s.KNNFrac == 0 {
		s.WindowFrac, s.PointFrac, s.KNNFrac = 0.5, 0.25, 0.25
	}
	if s.WindowArea <= 0 {
		s.WindowArea = 0.001
	}
	if s.K <= 0 {
		s.K = 10
	}
	return s
}

// NewStream generates a deterministic request stream over ds: query centers
// are drawn data-density-weighted (the convention of the paper's query
// workloads), kinds by the spec's weights. Equal (ds, spec) yield identical
// streams.
func NewStream(ds *datagen.Dataset, spec StreamSpec) []Request {
	spec = spec.normalized()
	sum := spec.WindowFrac + spec.PointFrac + spec.KNNFrac
	if sum <= 0 {
		panic(fmt.Sprintf("loadgen: stream with fraction sum %g", sum))
	}
	pWindow := spec.WindowFrac / sum
	pPoint := pWindow + spec.PointFrac/sum

	// One windows/points pool each, consumed in order: the per-kind pools
	// keep the stream identical to the established workload generators.
	n := spec.N
	ws := ds.Windows(spec.WindowArea, n, spec.Seed+1)
	pts := ds.Points(n, spec.Seed+2)

	rng := rand.New(rand.NewSource(spec.Seed ^ 0x6c6f6164)) // "load"
	out := make([]Request, 0, n)
	wi, pi := 0, 0
	for len(out) < n {
		r := rng.Float64()
		switch {
		case r < pWindow:
			out = append(out, Request{Kind: KindWindow, Window: ws[wi%len(ws)], Tech: spec.Tech})
			wi++
		case r < pPoint:
			out = append(out, Request{Kind: KindPoint, Point: pts[pi%len(pts)]})
			pi++
		default:
			out = append(out, Request{Kind: KindKNN, Point: pts[pi%len(pts)], K: spec.K})
			pi++
		}
	}
	return out
}

// Result reports one load run. Requests, Errors and Answers are functions
// of the stream and the served store (deterministic); Wall, QPS and the
// latency quantiles are wall-clock measurements.
type Result struct {
	Requests int
	Errors   int
	Answers  int
	Wall     time.Duration
	QPS      float64
	Lat      Histogram
	// Server is the server-side counter delta over the run when the driver
	// was bracketed with WithServerStats; nil otherwise.
	Server *ServerDelta
}

// ClosedLoop drives the stream with a fixed population of clients: client i
// executes requests i, i+clients, i+2·clients, … back to back, so the
// offered load adapts to the server's speed (the classic closed-loop model).
// The request-to-client assignment is deterministic; only timing varies.
func ClosedLoop(do Do, reqs []Request, clients int) Result {
	if clients < 1 {
		clients = 1
	}
	if clients > len(reqs) {
		clients = len(reqs)
	}
	res := Result{Requests: len(reqs)}
	if len(reqs) == 0 {
		return res
	}
	type tally struct {
		answers, errors int
		lat             []time.Duration
	}
	tallies := make([]tally, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for i := c; i < len(reqs); i += clients {
				t0 := time.Now()
				a, err := do(reqs[i])
				t.lat = append(t.lat, time.Since(t0))
				if err != nil {
					t.errors++
					continue
				}
				t.answers += a
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for i := range tallies {
		res.Answers += tallies[i].answers
		res.Errors += tallies[i].errors
		res.Lat.samples = append(res.Lat.samples, tallies[i].lat...)
	}
	res.Lat.seal()
	if res.Wall > 0 {
		res.QPS = float64(len(reqs)) / res.Wall.Seconds()
	}
	return res
}

// OpenLoop drives the stream with seeded Poisson arrivals at the given mean
// rate (requests per second): request i fires at its arrival time in its own
// goroutine whether or not earlier requests have answered, so a server
// slower than the offered rate accumulates queueing delay — visible in the
// latency quantiles, which a closed loop structurally cannot show. The
// arrival schedule is deterministic in (len(reqs), rate, seed).
func OpenLoop(do Do, reqs []Request, rate float64, seed int64) Result {
	res := Result{Requests: len(reqs)}
	if len(reqs) == 0 {
		return res
	}
	if rate <= 0 {
		panic(fmt.Sprintf("loadgen: open loop needs a positive rate, got %g", rate))
	}
	// Pre-draw the whole arrival schedule so the goroutine launches do not
	// perturb the randomness.
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e)) // "open"
	arrivals := make([]time.Duration, len(reqs))
	var at float64 // seconds
	for i := range arrivals {
		at += rng.ExpFloat64() / rate
		arrivals[i] = time.Duration(at * float64(time.Second))
	}

	type sample struct {
		answers, errs int
		lat           time.Duration
	}
	samples := make([]sample, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d := arrivals[i] - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			a, err := do(reqs[i])
			samples[i].lat = time.Since(t0)
			if err != nil {
				samples[i].errs = 1
				return
			}
			samples[i].answers = a
		}(i)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Lat.samples = make([]time.Duration, len(reqs))
	for i := range samples {
		res.Answers += samples[i].answers
		res.Errors += samples[i].errs
		res.Lat.samples[i] = samples[i].lat
	}
	res.Lat.seal()
	if res.Wall > 0 {
		res.QPS = float64(len(reqs)) / res.Wall.Seconds()
	}
	return res
}

// Histogram holds the latency samples of a run and answers exact quantiles
// (runs are at most a few thousand requests; keeping the samples beats
// bucket-resolution error).
type Histogram struct {
	samples []time.Duration // sorted after seal
	sum     time.Duration
}

func (h *Histogram) seal() {
	sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
	h.sum = 0
	for _, s := range h.samples {
		h.sum += s
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank.
func (h *Histogram) Quantile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// P50, P95 and P99 are the standard tail-latency quantiles.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 is the 95th percentile.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is the 99th percentile.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

package exp

import (
	"fmt"
	"strings"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/server"
)

// The serving benchmark asks what the serving layer changes: nothing in the
// answers — every request served over HTTP, plain and traced, is checked
// against the serial in-process reference pass of the served fixture
// (served.go), whose modelled cost it reports — and, on a scan-polluted
// hotspot workload, how the 2Q admission policy fares against LRU. Served
// wall clock is bench/'s served_read and served_write.

// serverModel is the deterministic reference row of one organization: the
// whole stream executed serially in-process, modelled cost only.
type serverModel struct {
	Org           string  `json:"org"`
	Requests      int     `json:"requests"`
	Answers       int     `json:"answers"`
	Candidates    int     `json:"candidates"`
	ModelIOSec    float64 `json:"model_io_sec"`
	ModelMSPerReq float64 `json:"model_ms_per_request"`
}

// serverAdmissionRun is one replacement policy serving the same hotspot+scan
// workload over HTTP. Hits and misses are /metrics deltas; the drive is
// serial, so they are deterministic — but they describe buffer policy
// behaviour, not the paper's cost model.
type serverAdmissionRun struct {
	Policy   string  `json:"policy"` // "lru" or "2q"
	Ops      int     `json:"ops"`
	Answers  int     `json:"answers"`
	Hits     int64   `json:"buffer_hits"`
	Misses   int64   `json:"buffer_misses"`
	HitRatio float64 `json:"buffer_hit_ratio"`
}

// serverResult is the outcome of the serving benchmark, emitted as
// BENCH_server.json.
type serverResult struct {
	Scale             int     `json:"scale"`
	Requests          int     `json:"requests"`
	Seed              int64   `json:"seed"`
	WindowArea        float64 `json:"window_area"`
	K                 int     `json:"k"`
	AdmissionOps      int     `json:"admission_ops"`
	AdmissionBufPages int     `json:"admission_buf_pages"`

	Model     []serverModel        `json:"model"`
	Admission []serverAdmissionRun `json:"admission"`

	// Agree: every answer served over HTTP — plain and traced, request by
	// request — was identical to the serial in-process answer. Held in go
	// test by server.TestServedAnswersMatchInProcess and
	// TestTracedAnswersIdentical.
	Agree bool `json:"agree"`
	// AdmissionAtLeastLRU: the 2Q ghost-list policy's hit ratio was at least
	// plain LRU's on the hotspot+scan workload (buffer.TestScanResistance).
	AdmissionAtLeastLRU bool `json:"admission_at_least_lru"`
}

// Failed implements result.
func (r serverResult) Failed() []string {
	return failed(verdict{"agree", r.Agree}, verdict{"admission_at_least_lru", r.AdmissionAtLeastLRU})
}

// serverBench measures the serving layer: all three organizations are built
// from the same dataset, the deterministic stream runs serially in-process
// for the modelled reference, and each organization is then served over HTTP
// and the stream replayed, plain and traced, against the reference answers.
// Every field is byte-reproducible.
//
// The stream has 360 requests; the admission rows run 1500 ops on a 192-page
// buffer, small enough that sequential scans flood plain LRU. The smoke
// preset runs 120 requests and 600 admission ops on 96 pages.
func serverBench(o Options, smoke bool, _ []int) result {
	o = o.WithDefaults()
	requests, admissionOps, admissionBuf := 360, 1500, 192
	if smoke {
		o = o.smoke(0)
		requests, admissionOps, admissionBuf = 120, 600, 96
	}
	spec := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed}
	ds := datagen.Generate(spec)
	stream := ds.Stream(datagen.StreamSpec{
		N: requests, WindowArea: streamWindowArea, K: streamK, Seed: o.Seed + 4,
	})

	res := serverResult{
		Scale:             o.Scale,
		Requests:          requests,
		Seed:              o.Seed,
		WindowArea:        streamWindowArea,
		K:                 streamK,
		AdmissionOps:      admissionOps,
		AdmissionBufPages: admissionBuf,
		Agree:             true,
	}
	for _, kind := range allOrgs {
		org := build(kind, ds, o.storeConfig()).Org
		params := org.Env().Params()
		o.Progress("server: built %s (scale %d)", kind, o.Scale)

		// The reference pass: modelled columns and the per-request answers
		// every served arm is checked against.
		before := org.Env().Disk.Cost()
		refs := applyAll(org, stream)
		cost := org.Env().Disk.Cost().Sub(before)
		model := serverModel{Org: string(kind), Requests: len(stream)}
		model.Answers, model.Candidates = sumAnswers(refs)
		model.ModelIOSec = cost.TimeSec(params)
		model.ModelMSPerReq = cost.TimeMS(params) / float64(len(stream))
		res.Model = append(res.Model, model)
		o.Progress("server: %s model %.1f ms/request over %d requests",
			kind, model.ModelMSPerReq, model.Requests)

		// Verification: plain and traced once each, serially.
		client, stop := startServer(org, server.Config{})
		for _, traced := range []bool{false, true} {
			if !replay(view(client, traced), stream, refs) {
				res.Agree = false
				o.Progress("server: %s answers (traced=%v) DIFFER from in-process", kind, traced)
			}
		}
		stop()
	}

	res.Admission = admissionRuns(o, ds, admissionOps, admissionBuf)
	res.AdmissionAtLeastLRU = res.Admission[1].HitRatio >= res.Admission[0].HitRatio
	return res
}

// admissionRuns serves the cluster organization from a small buffer under
// each replacement policy and drives the same serial hotspot workload with
// periodic large scans through HTTP — the access pattern 2Q's ghost list
// exists for. Hit ratios come from /metrics deltas over the serving phase
// (construction warms the buffer differently per policy and is not what the
// rows compare).
func admissionRuns(o Options, ds *datagen.Dataset, n, bufPages int) []serverAdmissionRun {
	ops := ds.MixedWorkload(datagen.MixSpec{
		Ops:        n,
		InsertFrac: 0.05, DeleteFrac: 0.05, UpdateFrac: 0.1, QueryFrac: 0.8,
		HotspotFrac: 0.9, HotspotSide: 0.15, WindowArea: 0.002,
		Seed: o.Seed + 16,
	})
	scans := ds.Windows(0.12, 16, o.Seed+17)

	var runs []serverAdmissionRun
	for _, pol := range []string{"lru", "2q"} {
		org := build(orgCluster, ds, spatialcluster.StoreConfig{
			BufferPages: bufPages, BufferPolicy: pol,
		}).Org
		client, stop := startServer(org, server.Config{MaxInFlight: 4})

		run := serverAdmissionRun{Policy: pol, Ops: len(ops)}
		m0, err := client.Metrics()
		for i := 0; i < len(ops) && err == nil; i++ {
			var ids, scanned []uint64
			if ids, _, err = send(client, ops[i]); err == nil && i%12 == 11 {
				// Every 12th op, a large scan window floods the buffer — the
				// read pattern plain LRU surrenders its hot set to.
				scanned, _, err = send(client, datagen.Op{Kind: datagen.OpWindow, Window: scans[i/12%len(scans)]})
			}
			run.Answers += len(ids) + len(scanned)
		}
		m1, err1 := client.Metrics()
		stop()
		if err != nil || err1 != nil {
			panic(fmt.Sprintf("exp: server bench admission %s: %v %v", pol, err, err1))
		}
		run.Hits = m1.BufferHits - m0.BufferHits
		run.Misses = m1.BufferMisses - m0.BufferMisses
		if total := run.Hits + run.Misses; total > 0 {
			run.HitRatio = float64(run.Hits) / float64(total)
		}
		runs = append(runs, run)
		o.Progress("server: admission %s hit ratio %.3f (%d hits / %d misses)",
			pol, run.HitRatio, run.Hits, run.Misses)
	}
	return runs
}

// Render formats the result as a text report.
func (r serverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving benchmark (scale=%d, %d requests/run)\n", r.Scale, r.Requests)
	fmt.Fprintf(&b, "\nModelled reference (serial, in-process):\n")
	fmt.Fprintf(&b, "  %-14s %9s %9s %11s %13s\n", "org", "requests", "answers", "model I/O s", "model ms/req")
	for _, m := range r.Model {
		fmt.Fprintf(&b, "  %-14s %9d %9d %11.1f %13.2f\n",
			m.Org, m.Requests, m.Answers, m.ModelIOSec, m.ModelMSPerReq)
	}
	fmt.Fprintf(&b, "\nBuffer admission (%d pages, hotspot workload with scans):\n", r.AdmissionBufPages)
	fmt.Fprintf(&b, "  %-6s %10s %10s %10s %10s\n", "policy", "answers", "hits", "misses", "hit ratio")
	for _, run := range r.Admission {
		fmt.Fprintf(&b, "  %-6s %10d %10d %10d %10.3f\n", run.Policy, run.Answers, run.Hits, run.Misses, run.HitRatio)
	}
	fmt.Fprintf(&b, "\nHTTP answers identical to in-process (JSON, traced): %v\n", r.Agree)
	fmt.Fprintf(&b, "2Q hit ratio at least LRU:                       %v\n", r.AdmissionAtLeastLRU)
	return b.String()
}

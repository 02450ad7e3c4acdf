package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// The backend benchmark answers the question the pluggable storage layer
// exists for: how does the paper's modelled I/O cost relate to measured
// wall-clock I/O when the same workload runs on a real file instead of the
// simulated in-memory disk? Every row reports the two side by side. The
// modelled columns are a deterministic function of (scale, queries, seed)
// and must be byte-identical across runs and backends — the registry test
// enforces this by diffing two runs with all "wall lines stripped. The wall
// columns are honest measurements and vary.

// Backend names used in BENCH_backend.json.
const (
	backendMem  = "mem"
	backendFile = "file"
)

// backendBuild reports one organization construction on one backend.
type backendBuild struct {
	Backend    string  `json:"backend"`
	Org        string  `json:"org"`
	ModelIOSec float64 `json:"model_io_sec"` // modelled construction cost
	WallSec    float64 `json:"wall_sec"`     // wall-clock construction time
	WallIOSec  float64 `json:"wall_io_sec"`  // wall-clock spent inside backend I/O
}

// backendQueryRun reports one window-query batch on one backend.
type backendQueryRun struct {
	Backend        string  `json:"backend"`
	Org            string  `json:"org"`
	Tech           string  `json:"tech"`
	Queries        int     `json:"queries"`
	Answers        int     `json:"answers"`
	CandidateBytes int64   `json:"candidate_bytes"`
	ModelIOSec     float64 `json:"model_io_sec"`     // modelled query cost
	ModelMSPer4KB  float64 `json:"model_ms_per_4kb"` // the paper's Figure 8 metric
	WallSec        float64 `json:"wall_sec"`         // wall-clock for the batch
	WallIOSec      float64 `json:"wall_io_sec"`      // wall-clock inside backend I/O
}

// backendResult is the outcome of the backend benchmark, emitted as
// BENCH_backend.json.
type backendResult struct {
	Scale      int     `json:"scale"`
	Queries    int     `json:"queries"`
	Seed       int64   `json:"seed"`
	WindowArea float64 `json:"window_area"`
	GOMAXPROCS int     `json:"wall_gomaxprocs"` // env-dependent, stripped like a measurement

	Builds    []backendBuild    `json:"builds"`
	QueryRuns []backendQueryRun `json:"query_runs"`

	// ModelMatch: every modelled column — cost, answers, candidate bytes —
	// is identical across the backends: the backend choice is invisible to
	// the cost model. Held in go test by store's TestBackendsAgree and
	// filebackend's TestDiskOnFileBackend.
	ModelMatch bool `json:"model_match"`
	// ReopenMatch: a store built and saved on the file backend reopens
	// (via Save/Open) with identical StorageStats and identical
	// window/point/k-NN answer sets.
	ReopenMatch bool `json:"reopen_match"`
}

// Failed implements result.
func (r backendResult) Failed() []string {
	return failed(verdict{"model_match", r.ModelMatch}, verdict{"reopen_match", r.ReopenMatch})
}

// backendBench builds the three organizations of the Figure 5/6 comparison
// on the in-memory backend and on the file backend, runs the Figure 8
// window-query workload (cold queries on A-1) per organization — all four
// read techniques on the cluster organization — and reports modelled I/O
// next to measured wall-clock for every build and every query batch. It also
// proves the persistence path: the file-backed cluster store is saved with
// Save, reopened with Open, and compared answer-for-answer against the
// original. The queries are the 1% windows of Figure 8; the page stores and
// the snapshot live in a temporary directory that is removed afterwards.
func backendBench(o Options, smoke bool, _ []int) result {
	o = o.WithDefaults()
	if smoke {
		o = o.smoke(40)
	}
	const windowArea = 0.01
	dir, err := os.MkdirTemp("", "spatialcluster-backend-*")
	if err != nil {
		panic(fmt.Sprintf("exp: backend bench temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	res := backendResult{
		Scale:      o.Scale,
		Queries:    o.Queries,
		Seed:       o.Seed,
		WindowArea: windowArea,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ModelMatch: true,
	}

	spec := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed}
	ds := datagen.Generate(spec)
	ws := ds.Windows(windowArea, o.Queries, o.Seed+int64(windowArea*1e7))

	var fileCluster store.Organization // the file-backed cluster store, for the reopen check
	for _, backend := range []string{backendMem, backendFile} {
		for ki, kind := range allOrgs {
			cfg := spatialcluster.StoreConfig{BufferPages: o.storeConfig().BufferPages}
			if backend == backendFile {
				cfg.Path = filepath.Join(dir, fmt.Sprintf("pages-%d.db", ki))
			}
			b := build(kind, ds, cfg)
			env := b.Org.Env()
			m := env.Disk.Measured()
			res.Builds = append(res.Builds, backendBuild{
				Backend:    backend,
				Org:        string(kind),
				ModelIOSec: b.ConstructionSec,
				WallSec:    b.WallClock.Seconds(),
				WallIOSec:  m.IOSeconds(),
			})
			o.Progress("backend: %s %s built (model %.0f s, wall %.3f s, wall I/O %.3f s)",
				backend, kind, b.ConstructionSec, b.WallClock.Seconds(), m.IOSeconds())

			techs := []store.Technique{store.TechComplete}
			if kind == orgCluster {
				techs = []store.Technique{
					store.TechComplete, store.TechThreshold, store.TechSLM, store.TechSLMVector,
				}
			}
			for _, tech := range techs {
				before := env.Disk.Measured()
				start := time.Now()
				sum := runWindowQueries(b.Org, ws, tech)
				wall := time.Since(start)
				mio := env.Disk.Measured().Sub(before)
				res.QueryRuns = append(res.QueryRuns, backendQueryRun{
					Backend:        backend,
					Org:            string(kind),
					Tech:           tech.String(),
					Queries:        sum.Queries,
					Answers:        sum.Answers,
					CandidateBytes: sum.CandidateBytes,
					ModelIOSec:     sum.TotalMS / 1000,
					ModelMSPer4KB:  sum.MSPer4KB(),
					WallSec:        wall.Seconds(),
					WallIOSec:      mio.IOSeconds(),
				})
				o.Progress("backend: %s %s %s: model %.1f ms/4KB, wall %.3f s",
					backend, kind, tech, sum.MSPer4KB(), wall.Seconds())
			}

			if backend == backendFile && kind == orgCluster {
				fileCluster = b.Org // keep open for the reopen check below
			} else {
				env.Close()
			}
		}
	}
	res.ModelMatch = checkModelMatch(res)

	res.ReopenMatch = checkReopen(o, fileCluster, ds, ws, filepath.Join(dir, "cluster.sdb"))
	fileCluster.Env().Close()
	return res
}

// checkModelMatch verifies that every modelled column is identical across
// the backends, row by row.
func checkModelMatch(res backendResult) bool {
	type buildKey struct{ org string }
	builds := map[buildKey]float64{}
	for _, b := range res.Builds {
		k := buildKey{b.Org}
		if b.Backend == backendMem {
			builds[k] = b.ModelIOSec
			continue
		}
		if want, ok := builds[k]; !ok || want != b.ModelIOSec {
			return false
		}
	}
	type queryKey struct{ org, tech string }
	type queryModel struct {
		ioSec, msPer4KB float64
		answers         int
		bytes           int64
	}
	queries := map[queryKey]queryModel{}
	for _, q := range res.QueryRuns {
		k := queryKey{q.Org, q.Tech}
		m := queryModel{q.ModelIOSec, q.ModelMSPer4KB, q.Answers, q.CandidateBytes}
		if q.Backend == backendMem {
			queries[k] = m
			continue
		}
		if want, ok := queries[k]; !ok || want != m {
			return false
		}
	}
	return true
}

// checkReopen saves the file-backed cluster store, reopens it, and compares
// storage statistics and the answer sets of the full window workload plus
// spot point and k-NN queries.
func checkReopen(o Options, org store.Organization, ds *datagen.Dataset, ws []geom.Rect, path string) bool {
	if org == nil {
		return false
	}
	if err := spatialcluster.Save(org, path); err != nil {
		o.Progress("backend: save failed: %v", err)
		return false
	}
	reopened, err := spatialcluster.Open(path, o.storeConfig())
	if err != nil {
		o.Progress("backend: open failed: %v", err)
		return false
	}
	if reopened.Stats() != org.Stats() {
		o.Progress("backend: reopened stats differ")
		return false
	}
	if !storesAgree(org, reopened, ws, ds.Points(16, o.Seed+3)) {
		o.Progress("backend: reopened window, point or k-NN answers differ")
		return false
	}
	return true
}

// Render formats the result as a text report.
func (r backendResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Backend benchmark: modelled vs measured I/O (scale 1/%d, %d queries, %.3g%% windows)\n",
		r.Scale, r.Queries, r.WindowArea*100)
	fmt.Fprintf(&b, "\nConstruction (A-1):\n")
	fmt.Fprintf(&b, "  %-11s %-14s %12s %10s %12s\n", "backend", "org", "model I/O s", "wall s", "wall I/O s")
	for _, bl := range r.Builds {
		fmt.Fprintf(&b, "  %-11s %-14s %12.0f %10.3f %12.3f\n",
			bl.Backend, bl.Org, bl.ModelIOSec, bl.WallSec, bl.WallIOSec)
	}
	fmt.Fprintf(&b, "\nWindow queries (cold, per technique):\n")
	fmt.Fprintf(&b, "  %-11s %-14s %-12s %14s %12s %10s %12s\n",
		"backend", "org", "tech", "model ms/4KB", "model I/O s", "wall s", "wall I/O s")
	for _, q := range r.QueryRuns {
		fmt.Fprintf(&b, "  %-11s %-14s %-12s %14.1f %12.1f %10.3f %12.3f\n",
			q.Backend, q.Org, q.Tech, q.ModelMSPer4KB, q.ModelIOSec, q.WallSec, q.WallIOSec)
	}
	fmt.Fprintf(&b, "\nmodelled columns identical across backends: %v\n", r.ModelMatch)
	fmt.Fprintf(&b, "file-backed store reopens bit-identical:     %v\n", r.ReopenMatch)
	return b.String()
}

// sameIDSet compares two answer sets ignoring order.
func sameIDSet(a, b []object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[object.ID]int, len(a))
	for _, id := range a {
		seen[id]++
	}
	for _, id := range b {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}

// Package exp holds every experiment of the repository behind one registry
// (Experiments): one driver per table and figure of the paper's evaluation
// (sections 5 and 6), and the repository's own engine benchmarks. The
// registry is the package's API: an Experiment's Run is the only way into a
// driver, and its result — a report rendered the way the paper labels its
// figures (I/O seconds for construction and joins, msec/4KB for queries,
// pages for storage utilization), the gating verdicts that came out false,
// and for an engine benchmark the JSON document WriteJSON writes — is
// reached only through Render, Failed and WriteJSON. Besides it the package
// exports what cmd/sdb shares with the drivers: ApplyOps and
// CoolObjectPages.
//
// Every driver generates its workload with internal/datagen — a workload is
// a []datagen.Op, and the harness has one function that runs an op against a
// store (apply) and one that sends it through a server client (send) —
// builds the organization models under test through the facade's one
// builder (spatialcluster.NewStore, via build), and runs its sweep. Nothing
// but Options, the -smoke switch and the swept axis configures a driver:
// every other parameter is a constant of the experiment, and -smoke selects
// the CI-sized preset kept beside the defaults.
//
// Experiments run at a configurable Scale: Scale=1 is the paper's full data
// size, the default Scale=8 keeps the full pipeline minutes-fast while
// preserving every relative effect (trees keep 3+ levels and thousands of
// data pages). Join buffer sizes are divided by its square root so the
// buffer-to-data ratios of Figures 14 and 16 are preserved.
//
// The engine benchmarks are named by the axis they sweep and each emit one
// JSON artifact (schemas in docs/BENCHMARKS.md):
//
//   - parallel (BENCH_parallel.json) — worker counts, in-process: join and
//     window queries per organization, with stage clocks.
//   - dynamic (BENCH_dynamic.json) — churn batches: "Figure 5 under churn",
//     query-cost decay and its repair by the reclustering policies.
//   - knn (BENCH_knn.json) — k: distance browsing across the organizations,
//     fresh and after churn.
//   - backend (BENCH_backend.json) — storage backends: mem, file,
//     file+fsync, file+compress; modelled cost next to measured I/O, the
//     Save/Open round trip, what page compression saved.
//   - server (BENCH_server.json) — the organizations served over HTTP: the
//     modelled reference of a served stream, every answer checked plain and
//     traced, LRU vs 2Q admission.
//   - shard (BENCH_shard.json) — shard counts behind the router: the
//     partition rows, every answer checked fresh and after a routed churn.
//   - recovery (BENCH_recovery.json) — group-commit batch size and WAL tail
//     length at the crash.
//
// The two served experiments share one fixture (served.go): one way to start
// a server or a shard cluster, one serial reference pass and one replay that
// verifies an arm answer for answer. They measure no wall clock: served
// throughput and latency are bench/'s served_read, served_write and
// cluster_scatter workloads. All seven are driven by the clusterbench command; the modelled columns of
// every artifact — every line without a "wall field — are byte-reproducible,
// which TestExperimentsDeterministic holds for the whole registry.
package exp

// Command sdbd is the spatialcluster daemon: it builds (or loads) a storage
// organization and serves it over an HTTP/JSON API — window, point and k-NN
// queries, insert/delete/update mutations, online reclustering, statistics
// and metrics, and live snapshots — running concurrent clients' queries side
// by side on the parallel query engine and group-committing their mutations
// through one dispatcher.
//
// Usage:
//
//	sdbd -org cluster -scale 32                      # generate, build, serve
//	sdbd -load store.sdb -addr 127.0.0.1:7072        # serve a snapshot
//	sdbd -org cluster -dbfile pages.db -save-on-exit exit.sdb
//	sdbd -dbfile pages.db -buffer-policy 2q
//	sdbd -org secondary -max-batch 1                 # baseline: one request at a time
//	sdbd -shards 4 -shard-of 0 -addr 127.0.0.1:7171  # one shard of a 4-shard cluster
//
// Query it with curl:
//
//	curl -s localhost:7070/stats
//	curl -s -d '{"window":[0.2,0.2,0.3,0.3],"tech":"SLM"}' localhost:7070/query/window
//	curl -s -d '{"point":[0.5,0.5],"k":10}' localhost:7070/query/knn
//
// A window that names no "tech" reads with vector read, the paper's cheapest
// single-access plan; there is no flag to change that default.
//
// Observe it (docs/OBSERVABILITY.md has the full tour): any query endpoint
// takes ?trace=1 and returns per-stage spans with I/O counters; GET /metrics
// answers JSON by default and Prometheus text exposition with
// 'Accept: text/plain' or ?format=prom; GET /debug/slowlog lists the slowest
// recent requests (threshold -slowlog-ms); -pprof mounts net/http/pprof.
//
//	curl -s -d '{"point":[0.5,0.5],"k":10}' 'localhost:7070/query/knn?trace=1'
//	curl -s -H 'Accept: text/plain' localhost:7070/metrics
//	curl -s localhost:7070/debug/slowlog
//
// With -wal the daemon logs every mutation to a write-ahead log before
// applying it, so acknowledged mutations survive a crash; on restart with the
// same -wal directory the daemon recovers the store from the log instead of
// building. Concurrent mutations share fsyncs through the mutation
// dispatcher (group commit).
//
//	sdbd -org cluster -scale 32 -wal /var/lib/sdbd/wal   # durable serving
//	sdbd -wal /var/lib/sdbd/wal                          # recover after a crash
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests drain,
// the store flushes, and — with -save-on-exit — a snapshot is written.
// Misused flags exit 2 with a usage message; runtime failures exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	sc "spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// fail reports a runtime error and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbd: "+format+"\n", args...)
	os.Exit(1)
}

// failUsage reports flag misuse: the error, then the flag usage, exit 2.
func failUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbd: "+format+"\n\nusage of sdbd:\n", args...)
	flag.PrintDefaults()
	os.Exit(2)
}

// failStore reports a store that could not be recovered, loaded or built:
// flag misuse when the storage flags contradict each other or name something
// unknown (the library marks those errors os.ErrInvalid), a runtime error
// otherwise.
func failStore(err error) {
	if errors.Is(err, os.ErrInvalid) {
		failUsage("%v", err)
	}
	fail("%v", err)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (port 0 picks a free port)")
		in       = flag.String("in", "", "map file written by mapgen (omit to generate)")
		mapID    = flag.Int("map", 1, "map to generate when -in is not given (1 or 2)")
		series   = flag.String("series", "A", "series to generate when -in is not given (A, B or C)")
		scale    = flag.Int("scale", 32, "scale to generate when -in is not given")
		seed     = flag.Int64("seed", 0, "generation seed")
		orgKind  = flag.String("org", "cluster", "organization: secondary, primary or cluster")
		buddy    = flag.Int("buddy", 0, "buddy sizes for the cluster organization (0=fixed, 3=restricted)")
		bufPg    = flag.Int("buf", 256, "buffer pages")
		dbfile   = flag.String("dbfile", "", "keep pages in this scratch file (real I/O) instead of memory: created, or taken if empty; a file holding bytes is refused")
		bufPol   = flag.String("buffer-policy", "lru", "buffer replacement policy: lru, or 2q (scan-resistant ghost-list admission)")
		loadPath = flag.String("load", "", "serve the store from a snapshot instead of building")

		maxBatch = flag.Int("max-batch", 64, "largest mutation batch, one WAL commit (a batch is what arrived while the previous one applied; 1 = serial execution of every request)")
		inflight = flag.Int("max-inflight", 256, "admitted requests before 429")
		throttle = flag.Float64("throttle", 0, "wall-clock disk throttle: sleep modelled request time times this factor (0 = off; 1 replays the paper's 1994 disk in real time)")
		saveExit = flag.String("save-on-exit", "", "write a snapshot here during graceful shutdown")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
		walDir   = flag.String("wal", "", "write-ahead log directory: mutations are logged and fsynced before they apply; a directory already holding a log is recovered on startup")
		nShards  = flag.Int("shards", 0, "serve one shard of a Hilbert-range partitioned cluster: partition the dataset into this many shards (needs -shard-of; put sdbrouter in front)")
		shardOf  = flag.Int("shard-of", -1, "which shard of the -shards partition this daemon owns (0-based)")
		slowMS   = flag.Float64("slowlog-ms", 250, "slow-query log threshold in milliseconds: requests at least this slow land in GET /debug/slowlog (negative disables)")
		pprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: profiling hooks distort benchmarks)")
	)
	flag.Parse()

	// Validate everything before any (potentially slow) generation.
	if args := flag.Args(); len(args) > 0 {
		failUsage("unexpected argument %q", args[0])
	}
	if *loadPath != "" && *in != "" {
		failUsage("-load and -in are mutually exclusive (the snapshot is the data source)")
	}
	if *saveExit != "" && *saveExit == *loadPath {
		failUsage("-save-on-exit and -load point at the same file %q", *saveExit)
	}
	if *loadPath == "" && *in == "" {
		if *mapID != 1 && *mapID != 2 {
			failUsage("unknown map %d (want 1 or 2)", *mapID)
		}
		if *series != "A" && *series != "B" && *series != "C" {
			failUsage("unknown series %q (want A, B or C)", *series)
		}
		if *scale < 1 {
			failUsage("bad scale %d", *scale)
		}
	}
	if *maxBatch < 1 {
		failUsage("bad -max-batch %d (want >= 1)", *maxBatch)
	}
	if *inflight < 1 {
		failUsage("bad -max-inflight %d (want >= 1)", *inflight)
	}
	if *throttle < 0 {
		failUsage("bad -throttle %g (want >= 0)", *throttle)
	}
	walRecover := *walDir != "" && wal.Exists(*walDir)
	if walRecover && (*loadPath != "" || *in != "") {
		failUsage("-wal %s already holds a log, which is the data source; drop -load/-in or point -wal at an empty directory", *walDir)
	}
	if *nShards != 0 || *shardOf != -1 {
		if *nShards < 1 {
			failUsage("-shard-of needs -shards")
		}
		if *shardOf < 0 || *shardOf >= *nShards {
			failUsage("-shard-of %d out of range for %d shards (want 0..%d)", *shardOf, *nShards, *nShards-1)
		}
		if *loadPath != "" {
			failUsage("-shards partitions the generated dataset; it cannot apply to a -load snapshot")
		}
		if walRecover {
			failUsage("-wal %s already holds a log, which is already one shard's data; -shards cannot re-partition it", *walDir)
		}
	}

	// Recover, load or build the organization: the storage flags are one
	// StoreConfig, and the library — which checks them against each other —
	// is the one place a backend is opened and a log attached.
	cfg := sc.StoreConfig{
		BufferPages:  *bufPg,
		BufferPolicy: *bufPol,
		BuddySizes:   *buddy,
		Path:         *dbfile,
		WALPath:      *walDir,
	}
	var (
		org store.Organization
		err error
	)
	if walRecover {
		rec, info, err := sc.RecoverStore(cfg)
		if err != nil {
			failStore(err)
		}
		org = rec
		tail := ""
		if info.TornTail {
			tail = ", torn final record discarded"
		}
		fmt.Printf("sdbd: recovered %s from %s (checkpoint LSN %d, %d records replayed%s, %d objects)\n",
			org.Name(), *walDir, info.SnapshotLSN, info.Replayed, tail, org.Stats().Objects)
	} else if *loadPath != "" {
		org, err = sc.Open(*loadPath, cfg)
		if err != nil {
			failStore(err)
		}
		fmt.Printf("sdbd: loaded %s from %s (%d objects)\n",
			org.Name(), *loadPath, org.Stats().Objects)
	} else {
		// NewStore refuses a used page file only after the dataset is read
		// or generated: refuse it first.
		if st, err := os.Stat(*dbfile); *dbfile != "" && err == nil && st.Size() != 0 {
			fail("-dbfile %s holds %d bytes; a page file must be new or empty", *dbfile, st.Size())
		}
		var ds *datagen.Dataset
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				fail("%v", err)
			}
			ds, err = datagen.ReadFrom(f)
			f.Close()
			if err != nil {
				fail("%v", err)
			}
		} else {
			ds = datagen.Generate(datagen.Spec{
				Map: datagen.MapID(*mapID), Series: datagen.Series((*series)[0]),
				Scale: *scale, Seed: *seed,
			})
		}
		if *nShards > 0 {
			// Every shard daemon computes the same partition from the same
			// deterministic dataset, keeps only its own range, and serves it;
			// sdbrouter in front reassembles the cluster.
			pmap := shard.FromKeys(ds.MBRs, *nShards)
			sub := ds.Subset(func(key geom.Rect) bool { return pmap.ShardOfKey(key) == *shardOf })
			lo, hi := pmap.Range(*shardOf)
			fmt.Printf("sdbd: shard %d of %d (hilbert [%d,%d), %d of %d objects)\n",
				*shardOf, *nShards, lo, hi, len(sub.Objects), len(ds.Objects))
			ds = sub
		}
		cfg.SmaxBytes = ds.Spec.SmaxBytes()
		org, err = sc.NewStore(*orgKind, cfg, ds.Objects, ds.MBRs)
		if err != nil {
			failStore(err)
		}
		// Serving starts the way it does after a restart: on a cold buffer,
		// with the construction cost reported and then set aside.
		env := org.Env()
		built := env.Disk.Cost().TimeSec(env.Params())
		env.Buf.Clear()
		env.Disk.ResetCost()
		fmt.Printf("sdbd: built %s over %s (%d objects, construction %.1f s modelled I/O)\n",
			org.Name(), ds.Spec.Name(), len(ds.Objects), built)
	}
	if *walDir != "" && !walRecover {
		fmt.Printf("sdbd: write-ahead log at %s (every mutation fsynced before it is acknowledged)\n", *walDir)
	}
	if *throttle > 0 {
		org.Env().Disk.SetThrottle(*throttle)
		fmt.Printf("sdbd: disk throttle %gx (modelled time replayed in wall clock)\n", *throttle)
	}

	srv := server.New(org, server.Config{
		MaxBatch:     *maxBatch,
		MaxInFlight:  *inflight,
		SnapshotPath: *saveExit,
		SlowLogMS:    *slowMS,
		Pprof:        *pprof,
		// POST /load cannot reuse -dbfile (the serving store owns it until
		// the swap), so loaded snapshots are served from memory; the disk
		// throttle carries over inside the server.
		OpenConfig: sc.StoreConfig{
			BufferPages:  *bufPg,
			BufferPolicy: *bufPol,
		},
	})
	if *dbfile != "" {
		fmt.Println("sdbd: note: POST /load serves the loaded snapshot from memory (-dbfile stays with the store built at startup)")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	hs := server.HTTPServer(srv.Handler())
	fmt.Printf("sdbd: listening on http://%s\n", ln.Addr())
	fmt.Printf("sdbd: concurrent queries, group-committed mutations, max batch %d, max in-flight %d\n",
		*maxBatch, *inflight)
	if *pprof {
		fmt.Printf("sdbd: pprof profiling at http://%s/debug/pprof/\n", ln.Addr())
	}

	// Serve until SIGINT/SIGTERM, then drain, flush and snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	case <-ctx.Done():
	}
	fmt.Println("sdbd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fail("draining HTTP connections: %v", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fail("%v", err)
	}
	if *saveExit != "" {
		fmt.Printf("sdbd: snapshot saved to %s\n", *saveExit)
	}
	if err := sc.CloseStore(srv.Organization()); err != nil { // /load may have swapped the store
		fail("closing backend: %v", err)
	}
	fmt.Println("sdbd: bye")
}

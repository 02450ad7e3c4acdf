// Command sdbrouter is the scatter-gather router daemon of a horizontally
// sharded spatialcluster: it fronts N sdbd shard daemons that partition the
// Hilbert key space and serves the same HTTP/JSON API a single sdbd does —
// window, point and k-NN queries, insert/update/delete mutations, recluster
// and flush — routing every request to the minimal set of shards and merging
// their answers. Clients need no routing awareness; curl speaks to the
// router exactly as it would to one daemon. The hop to the shards speaks the
// binary protocol of internal/binproto (the shards' /bin/* endpoints)
// whichever codec a request arrived in; JSON is the public edge. A request's
// deadline and cancellation ride along: a caller that goes away aborts its
// scatter.
//
// Usage:
//
//	# four shards, the partition sdbd -shards 4 computes itself:
//	sdbrouter -shards http://127.0.0.1:7171,http://127.0.0.1:7172,http://127.0.0.1:7173,http://127.0.0.1:7174
//
//	# explicit Hilbert ranges (addr=lo-hi, covering [0, 2^32) without gaps):
//	sdbrouter -shards 'http://h1:7070=0-2147483648,http://h2:7070=2147483648-4294967296'
//
// Without explicit ranges the key space is split uniformly across the listed
// shards — matching what the sdbd daemons computed only when the dataset's
// Hilbert quantiles are uniform; daemons started with -shards N compute
// quantile cuts, so list the ranges each daemon printed at startup, or use a
// uniform partition on uniformly distributed data.
//
// -pad widens routed queries by the largest key half-extent per axis, so a
// window also reaches shards whose objects merely overlap it; sdbd shard
// daemons print the partition they computed, and GET /shards answers the
// router's view. GET /stats and GET /metrics aggregate across every shard
// and report the router's own per-endpoint counters; /metrics also answers
// Prometheus text exposition (router-only sdbrouter_* families) under
// 'Accept: text/plain' or ?format=prom. GET /debug/slowlog lists the slowest
// recent routed requests with the slowest shard each touched (threshold
// -slowlog-ms); -pprof mounts net/http/pprof. /healthz answers liveness and
// /readyz readiness (200 only when every shard answers its own /healthz).
// Queries sent with ?trace=1 (or the binary traced request kinds) return one
// distributed span tree: a scatter span, a shard[i] child per shard touched
// with that shard's queue/execute sub-trace grafted beneath, and for k-NN
// one wave[i] span per scatter wave.
//
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
)

// fail reports a runtime error and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbrouter: "+format+"\n", args...)
	os.Exit(1)
}

// failUsage reports flag misuse: the error, then the flag usage, exit 2.
func failUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbrouter: "+format+"\n\nusage of sdbrouter:\n", args...)
	flag.PrintDefaults()
	os.Exit(2)
}

// parseShards parses the -shards list: comma-separated shard addresses, each
// optionally carrying an explicit Hilbert range as addr=lo-hi. Either every
// entry names a range (they must tile [0, 2^32) in order) or none does (the
// key space is split uniformly).
func parseShards(spec string) (*shard.Map, []string, error) {
	var addrs []string
	var ranges [][2]uint64
	entries := strings.Split(spec, ",")
	for i, e := range entries {
		e = strings.TrimSpace(e)
		addr, rng, hasRange := strings.Cut(e, "=")
		if addr == "" {
			return nil, nil, fmt.Errorf("shard %d has no address", i)
		}
		addrs = append(addrs, addr)
		if !hasRange {
			continue
		}
		loStr, hiStr, ok := strings.Cut(rng, "-")
		if !ok {
			return nil, nil, fmt.Errorf("shard %d: range %q is not lo-hi", i, rng)
		}
		lo, err := strconv.ParseUint(loStr, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: bad range start %q", i, loStr)
		}
		hi, err := strconv.ParseUint(hiStr, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: bad range end %q", i, hiStr)
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	if len(ranges) == 0 {
		return shard.Uniform(len(addrs)), addrs, nil
	}
	if len(ranges) != len(addrs) {
		return nil, nil, fmt.Errorf("%d of %d shards carry a range; give every shard one or none", len(ranges), len(addrs))
	}
	pmap, err := shard.FromRanges(ranges)
	if err != nil {
		return nil, nil, err
	}
	return pmap, addrs, nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7080", "listen address (port 0 picks a free port)")
		shardsFl = flag.String("shards", "", "comma-separated shard daemons, in Hilbert order: addr or addr=lo-hi (required)")
		pad      = flag.Float64("pad", 0, "query pad: the largest key half-extent of the data, per axis (0 with non-point keys risks missed answers on range boundaries)")
		inflight = flag.Int("max-inflight", 256, "admitted requests before 429")
		attempts = flag.Int("retry-attempts", 4, "tries per shard request (1 disables retry)")
		conns    = flag.Int("conns", 64, "keep-alive connections per shard")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
		slowMS   = flag.Float64("slowlog-ms", 250, "slow-query log threshold in milliseconds: requests at least this slow land in GET /debug/slowlog with the slowest shard they touched (negative disables)")
		pprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: profiling hooks distort benchmarks)")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		failUsage("unexpected argument %q", args[0])
	}
	if *shardsFl == "" {
		failUsage("-shards is required: the shard daemons to front")
	}
	if *pad < 0 {
		failUsage("bad -pad %g (want >= 0)", *pad)
	}
	if *inflight < 1 {
		failUsage("bad -max-inflight %d (want >= 1)", *inflight)
	}
	if *attempts < 1 {
		failUsage("bad -retry-attempts %d (want >= 1)", *attempts)
	}
	pmap, addrs, err := parseShards(*shardsFl)
	if err != nil {
		failUsage("bad -shards: %v", err)
	}
	if *pad > 0 {
		pmap.SetPad(*pad, *pad)
	}

	clients := make([]*server.Client, len(addrs))
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		clients[i] = server.NewClient(a, *conns)
		clients[i].Binary = true
		if *attempts > 1 {
			clients[i].Retry = &server.Retry{Attempts: *attempts, Seed: int64(i)}
		}
	}
	rt, err := router.New(pmap, clients, router.Config{
		MaxInFlight: *inflight,
		SlowLogMS:   *slowMS,
		Pprof:       *pprof,
	})
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	hs := server.HTTPServer(rt.Handler())
	fmt.Printf("sdbrouter: listening on http://%s\n", ln.Addr())
	if *pprof {
		fmt.Printf("sdbrouter: pprof profiling at http://%s/debug/pprof/\n", ln.Addr())
	}
	fmt.Printf("sdbrouter: %d shards, partition %s\n", pmap.N(), pmap.String())
	for i, a := range addrs {
		lo, hi := pmap.Range(i)
		fmt.Printf("sdbrouter: shard %d: %s [%d,%d)\n", i, a, lo, hi)
	}

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
	fmt.Println("sdbrouter: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fail("draining HTTP connections: %v", err)
	}
	if err := rt.Shutdown(shutCtx); err != nil {
		fail("draining kept connections: %v", err)
	}
	fmt.Println("sdbrouter: bye")
}

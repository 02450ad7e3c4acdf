package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// datasetSeed fixes the map every run queries. The generator moves its urban
// centres with the seed, which shifts modelled I/O per query by ±15 % and
// engine throughput by ±20 % from one seed to the next (measured; see
// README) — far more than any bound — so --seed drives the operation stream
// only and the stored data stays the same.
const datasetSeed = 1

// hotspotSide is the side of the square most served_read query centres and
// half the served_write victims fall into.
const hotspotSide = 0.2

func generateDataset(scale int) *datagen.Dataset {
	return datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: scale, Seed: datasetSeed})
}

// hotspotOf returns the workload hotspot: like the data set, a fixed
// property of the benchmark, drawn data-density-weighted from datasetSeed.
func hotspotOf(ds *datagen.Dataset) geom.Rect {
	return ds.Hotspot(datagen.MixSpec{Seed: datasetSeed, HotspotSide: hotspotSide})
}

// buildCluster builds the cluster organization by dynamic insertion (the
// paper's construction path), flushes it and empties the buffer, so the
// warm-up round starts from a cold cache.
func buildCluster(objs []*object.Object, keys []geom.Rect, smaxBytes, bufPages int) store.Organization {
	env := store.NewEnv(bufPages)
	org := store.NewCluster(env, store.ClusterConfig{SmaxBytes: smaxBytes})
	for i, o := range objs {
		org.Insert(o, keys[i])
	}
	org.Flush()
	env.Buf.Clear()
	return org
}

// shutdownTimeout bounds how long stopping a listener or a server may take.
const shutdownTimeout = 30 * time.Second

// listen serves h on a loopback port and returns its URL and a stop function
// that closes the listener and waits for the serving goroutine to end.
func listen(h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; err == nil && serr != http.ErrServerClosed {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// node is one served store: what an sdbd process is.
type node struct {
	org  store.Organization
	srv  *server.Server
	url  string
	stop func() error
}

// serveStore starts a server with the daemon's default configuration over
// org on a loopback listener.
func serveStore(org store.Organization) (*node, error) {
	srv := server.New(org, server.Config{})
	url, stopListener, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	n := &node{org: org, srv: srv, url: url}
	n.stop = func() error {
		err := stopListener()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
		return err
	}
	return n, nil
}

// system is the program as one workload runs it: one or more stores, the
// servers in front of them, and the client the load generator speaks to.
type system struct {
	nodes   []*node
	pmap    *shard.Map     // cluster_scatter only
	edgeURL string         // what the load generator connects to; "" in-process
	wal     *wal.Store     // served_write only
	stops   []func() error // run in reverse order by close
}

func (s *system) orgs() []store.Organization {
	out := make([]store.Organization, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.org
	}
	return out
}

// close stops every listener and server and waits for them; it returns the
// first error.
func (s *system) close() error {
	var first error
	for i := len(s.stops) - 1; i >= 0; i-- {
		if err := s.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	s.stops = nil
	return first
}

// buildStores builds the workload's stores: one over the whole data set, or
// one per Hilbert range of pmap.
func buildStores(ds *datagen.Dataset, pmap *shard.Map, bufPages int) []store.Organization {
	if pmap == nil {
		return []store.Organization{buildCluster(ds.Objects, ds.MBRs, ds.Spec.SmaxBytes(), bufPages)}
	}
	objs := make([][]*object.Object, pmap.N())
	keys := make([][]geom.Rect, pmap.N())
	for i, o := range ds.Objects {
		s := pmap.ShardOfKey(ds.MBRs[i])
		objs[s] = append(objs[s], o)
		keys[s] = append(keys[s], ds.MBRs[i])
	}
	orgs := make([]store.Organization, pmap.N())
	for s := range orgs {
		orgs[s] = buildCluster(objs[s], keys[s], ds.Spec.SmaxBytes(), bufPages)
	}
	return orgs
}

// serveCluster serves one store per range of pmap and mounts a router in
// front. The router→shard hop speaks the binary protocol; nobody retries.
func serveCluster(orgs []store.Organization, pmap *shard.Map, clients int) (*system, error) {
	sys := &system{pmap: pmap}
	shardClients := make([]*server.Client, len(orgs))
	for s, org := range orgs {
		nd, err := serveStore(org)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.nodes = append(sys.nodes, nd)
		sys.stops = append(sys.stops, nd.stop)
		shardClients[s] = server.NewClient(nd.url, clients)
		shardClients[s].Binary = true
	}
	rt, err := router.New(pmap, shardClients, router.Config{})
	if err != nil {
		sys.close()
		return nil, err
	}
	url, stop, err := listen(rt.Handler())
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.edgeURL = url
	sys.stops = append(sys.stops, stop)
	return sys, nil
}

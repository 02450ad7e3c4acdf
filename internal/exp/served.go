package exp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
)

// The served fixture: what every experiment that puts a store behind HTTP
// (server, shard) shares. A deterministic stream of generated ops is run once
// serially in-process — the reference pass, whose modelled cost the result
// reports — and every served arm, whatever its tracing or shard count, is
// replayed serially against those outcomes, request by request. Every arm
// speaks JSON at the public edge (the router → shard hop is binary): that
// binary answers equal JSON answers is held by server.TestBinaryDifferential
// and router.TestRouterBinaryDifferential. What serving costs in wall-clock
// time is measured by bench/'s served_read, served_write and cluster_scatter
// workloads, not here.
//
// Determinism contract (the registry test pins the output): every field is a
// function of the stream and the store, never of timing.

// The shape of every served stream: the middle window size of Figure 8 and
// 10-NN, mixed 50/25/25 with point queries by datagen.Stream.
const (
	streamWindowArea = 0.001
	streamK          = 10
)

// applyAll executes ops serially in-process against org, windows at the
// default technique, and returns the per-op outcomes — the reference every
// served arm is compared with. Server semantics: no page cooling, the buffer
// stays warm across requests. Against a *wal.Store every mutation is one
// commit: its mutating methods log one record each and panic when the log
// fails.
func applyAll(org store.Organization, ops []datagen.Op) []applied {
	refs := make([]applied, len(ops))
	for i, op := range ops {
		refs[i] = apply(org, op, store.TechComplete)
	}
	return refs
}

// sumAnswers totals a reference pass.
func sumAnswers(refs []applied) (answers, candidates int) {
	for _, r := range refs {
		answers += len(r.IDs)
		candidates += r.Candidates
	}
	return
}

// answersMatch compares a served answer with its reference: rank by rank
// when ordered (k-NN), as sets otherwise.
func answersMatch(got []uint64, want []object.ID, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if ordered {
		for i := range got {
			if got[i] != uint64(want[i]) {
				return false
			}
		}
		return true
	}
	seen := make(map[uint64]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		seen[uint64(id)]--
		if seen[uint64(id)] < 0 {
			return false
		}
	}
	return true
}

// send puts one generated op through c — the one place the harness turns an
// op into a request — and returns the answer IDs of a query, the verdict of
// a mutation (true for an insert the server took). A window names no
// technique. Through a traced view of the client every query asks for its
// span tree.
func send(c *server.Client, op datagen.Op) (ids []uint64, existed bool, err error) {
	switch op.Kind {
	case datagen.OpInsert:
		err = c.Insert(op.Obj, op.Key)
		return nil, err == nil, err
	case datagen.OpDelete:
		existed, err = c.Delete(op.ID)
		return nil, existed, err
	case datagen.OpUpdate:
		existed, err = c.Update(op.Obj, op.Key)
		return nil, existed, err
	case datagen.OpWindow:
		r, err := c.Window(op.Window, "")
		return r.IDs, false, err
	case datagen.OpPoint:
		r, err := c.Point(op.Point)
		return r.IDs, false, err
	case datagen.OpKNN:
		r, err := c.KNN(op.Point, op.K)
		return r.IDs, false, err
	}
	panic(fmt.Sprintf("exp: unknown op kind %v", op.Kind))
}

// view returns the client an arm is driven through: c itself, or — traced —
// the view of c every query of which asks for its span tree.
func view(c *server.Client, traced bool) *server.Client {
	if traced {
		return c.WithTrace(context.Background(), 0)
	}
	return c
}

// replay sends ops serially through c and reports whether every one was
// served and matched its reference: a query's answer, a mutation's verdict.
func replay(c *server.Client, ops []datagen.Op, refs []applied) bool {
	for i, op := range ops {
		ids, existed, err := send(c, op)
		if err != nil || existed != refs[i].existed ||
			!answersMatch(ids, refs[i].IDs, op.Kind == datagen.OpKNN) {
			return false
		}
	}
	return true
}

// startServer mounts a fresh server over org on a loopback listener.
func startServer(org store.Organization, scfg server.Config) (*server.Client, func()) {
	s := server.New(org, scfg)
	hs := httptest.NewServer(s.Handler())
	stop := func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	return server.NewClient(hs.URL, 64), stop
}

// startShardCluster partitions ds into n shards, builds one cluster
// organization per shard, serves each over loopback HTTP and mounts a router
// in front; it returns a client of the router and the function that stops
// the whole cluster. The shard clients speak the binary protocol, as
// sdbrouter's do, and carry a deterministic retry config so transient
// loopback hiccups cannot fail a benchmark run.
func startShardCluster(o Options, ds *datagen.Dataset, n int) (*server.Client, func(), error) {
	pmap := shard.FromKeys(ds.MBRs, n)
	var (
		shards []*server.Client
		stops  []func()
	)
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for s := 0; s < n; s++ {
		sub := ds.Subset(func(key geom.Rect) bool { return pmap.ShardOfKey(key) == s })
		c, stop := startServer(build(orgCluster, sub, o.storeConfig()).Org, server.Config{})
		stops = append(stops, stop)
		c.Binary = true
		c.Retry = &server.Retry{Attempts: 4, BaseDelay: time.Millisecond,
			MaxDelay: 16 * time.Millisecond, Seed: o.Seed + int64(s)}
		shards = append(shards, c)
	}
	rt, err := router.New(pmap, shards, router.Config{})
	if err != nil {
		stopAll()
		return nil, nil, err
	}
	hs := httptest.NewServer(rt.Handler())
	stops = append(stops, hs.Close)
	return server.NewClient(hs.URL, 64), stopAll, nil
}

package server_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// linQuery is one query of the linearizability check.
type linQuery struct {
	win  *geom.Rect // nil: point query, or k-NN when k > 0
	tech store.Technique
	pt   geom.Point
	k    int
}

// linAnswer is a query answer in comparable form: window and point IDs
// sorted, k-NN IDs and distances by rank.
type linAnswer struct {
	ids        []object.ID
	dists      []float64
	candidates int
}

func newLinAnswer(qr store.QueryResult, dists []float64, ranked bool) linAnswer {
	ids := append([]object.ID(nil), qr.IDs...)
	if !ranked {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	if len(ids) == 0 {
		ids = nil
	}
	if len(dists) == 0 {
		dists = nil
	}
	return linAnswer{ids: ids, dists: dists, candidates: qr.Candidates}
}

// served sends the query through the Service.
func (q linQuery) served(s *server.Server) (linAnswer, error) {
	rq := &server.Request{}
	switch {
	case q.win != nil:
		qr, err := s.Window(rq, *q.win, q.tech)
		return newLinAnswer(qr, nil, false), err
	case q.k == 0:
		qr, err := s.Point(rq, q.pt)
		return newLinAnswer(qr, nil, false), err
	}
	nr, err := s.KNN(rq, q.pt, q.k)
	return newLinAnswer(nr.QueryResult, nr.Dists, true), err
}

// reference runs the query in-process.
func (q linQuery) reference(org store.Organization) linAnswer {
	switch {
	case q.win != nil:
		return newLinAnswer(org.WindowQuery(*q.win, q.tech), nil, false)
	case q.k == 0:
		return newLinAnswer(org.PointQuery(q.pt), nil, false)
	}
	nr := org.NearestQuery(q.pt, q.k)
	return newLinAnswer(nr.QueryResult, nr.Dists, true)
}

// linObservation is one served answer and the window of prefix states it may
// reflect: mutations acknowledged before the query was sent, mutations sent
// by the time its answer came back.
type linObservation struct {
	q      linQuery
	ans    linAnswer
	lo, hi int
	ok     bool
}

// mutResult is one mutation's answer.
type mutResult struct {
	existed bool
	err     error
}

// applyOp applies one datagen mutation through apply's three operations.
func applyOp(op datagen.Op, insert func(*object.Object, geom.Rect) error,
	update func(*object.Object, geom.Rect) (bool, error), del func(object.ID) (bool, error)) mutResult {
	var r mutResult
	switch op.Kind {
	case datagen.OpInsert:
		r.err = insert(op.Obj, op.Key)
	case datagen.OpUpdate:
		r.existed, r.err = update(op.Obj, op.Key)
	case datagen.OpDelete:
		r.existed, r.err = del(op.ID)
	}
	return r
}

// TestQueriesLinearizableUnderMutations: one goroutine applies 200 datagen
// mutations through the Service while three readers send window, point and
// k-NN queries into the region the mutations concentrate on. Each reader
// notes how many mutations were acknowledged before it sent a query and how
// many had been sent when the answer came back; the answer must equal a
// reference store's at some prefix state in between — the query took effect
// at one instant after every mutation acknowledged before it arrived. Run it
// under -race: queries overlap the dispatcher's applies.
func TestQueriesLinearizableUnderMutations(t *testing.T) {
	ds := obsDataset()
	const side = 0.15
	muts := ds.MixedWorkload(datagen.MixSpec{
		Ops: 200, InsertFrac: 0.3, DeleteFrac: 0.3, UpdateFrac: 0.4,
		HotspotFrac: 0.9, HotspotSide: side, Seed: 61,
	})
	// The same seed and side draw the same hotspot.
	var queries []linQuery
	for i, op := range ds.MixedWorkload(datagen.MixSpec{
		Ops: 16, QueryFrac: 1, HotspotFrac: 1, HotspotSide: side, WindowArea: 0.004, Seed: 61,
	}) {
		c := op.Window.Center()
		queries = append(queries,
			linQuery{win: &op.Window, tech: store.Technique(i % 5)}, linQuery{pt: c}, linQuery{pt: c, k: 5})
	}

	for _, kind := range []string{"cluster", "secondary"} {
		for _, withWAL := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wal=%v", kind, withWAL), func(t *testing.T) {
				org := buildOrg(t, kind, ds)
				if withWAL {
					ws, err := wal.Create(org, filepath.Join(t.TempDir(), "wal"), wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { ws.Close() })
					org = ws
				}
				s, _ := startServer(t, org, server.Config{})
				checkLinearizable(t, s, buildOrg(t, kind, ds), muts, queries)
			})
		}
	}
}

// checkLinearizable runs the mutator and three readers against s, then
// replays the mutations on ref and matches every observation to a prefix
// state it may reflect.
func checkLinearizable(t *testing.T, s *server.Server, ref store.Organization, muts []datagen.Op, queries []linQuery) {
	t.Helper()
	var sent, acked atomic.Int64
	results := make([]mutResult, len(muts))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, op := range muts {
			sent.Store(int64(i + 1))
			results[i] = applyOp(op,
				func(o *object.Object, key geom.Rect) error { return s.Insert(&server.Request{}, o, key) },
				func(o *object.Object, key geom.Rect) (bool, error) { return s.Update(&server.Request{}, o, key) },
				func(id object.ID) (bool, error) { return s.Delete(&server.Request{}, id) })
			acked.Store(int64(i + 1))
		}
	}()

	const readers, minQueries = 3, 30
	seen := make([][]*linObservation, readers)
	var wg sync.WaitGroup
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= minQueries {
						return
					}
				default:
				}
				q := queries[(r+n*readers)%len(queries)]
				lo := int(acked.Load())
				ans, err := q.served(s)
				hi := int(sent.Load())
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				seen[r] = append(seen[r], &linObservation{q: q, ans: ans, lo: lo, hi: hi})
			}
		}()
	}
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}

	var all []*linObservation
	for _, obs := range seen {
		all = append(all, obs...)
	}
	for state := 0; ; state++ {
		for _, o := range all {
			if !o.ok && o.lo <= state && state <= o.hi && reflect.DeepEqual(o.q.reference(ref), o.ans) {
				o.ok = true
			}
		}
		if state == len(muts) {
			break
		}
		want := applyOp(muts[state], ref.Insert,
			func(o *object.Object, key geom.Rect) (bool, error) { return ref.Update(o, key), nil },
			func(id object.ID) (bool, error) { return ref.Delete(id), nil })
		if results[state] != want {
			t.Fatalf("mutation %d answered %+v, the reference %+v", state, results[state], want)
		}
	}
	for i, o := range all {
		if !o.ok {
			t.Fatalf("observation %d (%+v) matches no state between %d and %d mutations", i, o.q, o.lo, o.hi)
		}
	}
	t.Logf("%d answers, each matched to a state it may reflect", len(all))
}

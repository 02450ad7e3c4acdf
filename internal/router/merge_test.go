package router

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// mergeQueryReference is the merge as it was before it sized its answer once:
// a set for the dedup, a closure compare for the order. mergeQuery must
// answer as it does.
func mergeQueryReference(resps []server.QueryResponse) store.QueryResult {
	seen := make(map[uint64]bool)
	out := store.QueryResult{IDs: []object.ID{}}
	for _, r := range resps {
		out.Candidates += r.Candidates
		for _, id := range r.IDs {
			if !seen[id] {
				seen[id] = true
				out.IDs = append(out.IDs, object.ID(id))
			}
		}
	}
	sort.Slice(out.IDs, func(a, b int) bool { return out.IDs[a] < out.IDs[b] })
	return out
}

// shardAnswers draws the answers of n shards, perShard IDs each in no
// particular order, a tenth of them repeated on the next shard.
func shardAnswers(rng *rand.Rand, n, perShard int) []server.QueryResponse {
	resps := make([]server.QueryResponse, n)
	for s := range resps {
		ids := make([]uint64, 0, perShard)
		for i := 0; i < perShard; i++ {
			if prev := resps[max(s-1, 0)].IDs; s > 0 && len(prev) > 0 && rng.Intn(10) == 0 {
				ids = append(ids, prev[rng.Intn(len(prev))])
			} else {
				ids = append(ids, rng.Uint64()>>uint(rng.Intn(64)))
			}
		}
		resps[s] = server.QueryResponse{IDs: ids, Candidates: perShard + rng.Intn(50)}
	}
	return resps
}

func TestMergeQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		resps := shardAnswers(rng, rng.Intn(6), rng.Intn(40))
		if i%7 == 0 && len(resps) > 0 {
			resps[rng.Intn(len(resps))].IDs = nil // a shard with nothing in the window
		}
		got, want := mergeQuery(resps), mergeQueryReference(resps)
		if got.IDs == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("merge of %+v:\n got %+v\nwant %+v", resps, got, want)
		}
	}
}

// BenchmarkMergeQuery merges the 1,100 IDs a 1 % window draws, from one shard
// and spread over three.
func BenchmarkMergeQuery(b *testing.B) {
	for _, shards := range []int{1, 3} {
		resps := shardAnswers(rand.New(rand.NewSource(1)), shards, 1100/shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := mergeQuery(resps); len(out.IDs) == 0 {
					b.Fatal("empty merge")
				}
			}
		})
	}
}

// TestPutDropsAnswers: a fan going back to the pool holds no answer, error,
// request, exchange or stale filter in any slot of its storage, the slots
// past a later, narrower scatter's included: a pooled fan must not keep one
// query's answers alive. (Every slot is written before it is read, so a put
// that kept them would answer correctly and show only here.)
func TestPutDropsAnswers(t *testing.T) {
	f := (&Router{}).getFan(&server.Request{})
	f.resps = append(f.resps[:0], server.QueryResponse{IDs: []uint64{1}, Trace: &server.TraceInfo{}},
		server.QueryResponse{IDs: []uint64{2}})[:1]
	f.knn = append(f.knn[:0], server.KNNResponse{IDs: []uint64{3}, Dists: []float64{0.5}})[:0]
	f.errs = append(f.errs[:0], errors.New("shard down"))[:0]
	f.stale, f.fn = map[uint64][]int{1: {0}}, func(int, int) error { return nil }
	f.put()
	if f.rt != nil || f.rq != nil || f.fn != nil || f.stale != nil {
		t.Errorf("a pooled fan keeps its router %v, request %v, exchange %v or stale filter %v",
			f.rt != nil, f.rq != nil, f.fn != nil, f.stale)
	}
	for i, r := range f.resps[:cap(f.resps)] {
		if r.IDs != nil || r.Trace != nil {
			t.Errorf("a pooled fan keeps window answer %d: %v", i, r)
		}
	}
	for i, r := range f.knn[:cap(f.knn)] {
		if r.IDs != nil || r.Dists != nil {
			t.Errorf("a pooled fan keeps k-NN answer %d: %v", i, r)
		}
	}
	for i, err := range f.errs[:cap(f.errs)] {
		if err != nil {
			t.Errorf("a pooled fan keeps error %d: %v", i, err)
		}
	}
}

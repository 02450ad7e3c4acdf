package router

import (
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

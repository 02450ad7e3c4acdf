// Package router is the scatter-gather tier in front of a sharded cluster
// of internal/server instances.
//
// A Router owns a shard.Map (the Hilbert-range partition) and one typed
// server.Client per shard. It is a server.Service — the six data-plane
// operations as scatter, route and merge — served by a server.Front, the
// request path a single server is served by: the same paths in both codecs,
// the same validation, errors, admission control, counters, tracing and
// slow-query log. Clients, the experiment harness and curl cannot tell a
// cluster from one store:
//
//   - Window and point queries scatter to the shards whose Hilbert region
//     overlaps the (pad-expanded) window and merge the answers: the IDs of
//     all shards ascending, each once (shards own disjoint sets; the dedup
//     is belt-and-braces), [] rather than null when there are none, and the
//     candidates summed. A query's state is one pooled fan (its targets,
//     answer and error slots, shard observations, k-NN bounds and merger),
//     cleared of every answer when it goes back, and the first target is
//     asked on the caller's goroutine, each other one on its own: a routed
//     query allocates only its merged answer and its shard exchanges.
//   - k-NN queries run the wave protocol of shard.NextWave: shards are
//     queried in ascending order of their distance lower bound, each for the
//     full k, and the scatter stops once every unqueried shard's bound
//     strictly exceeds the k-th merged distance — the monotone stop of the
//     best-first leaf traversal lifted to whole shards. A queried shard's
//     answer is complete (it returned its local top k), so no re-query pass
//     is needed.
//   - Mutations route to exactly one shard — the owner of the key's Hilbert
//     center. A route cache (object ID → shard, populated by inserts and
//     updates that passed through the router) pins deletes and cross-shard
//     updates to the owning store; IDs never routed through the router
//     (data bulk-built shard-side) fall back to a broadcast delete.
//   - The control plane the router mounts on its Front: /recluster and
//     /flush broadcast, so per-shard WAL and maintenance ride the existing
//     machinery unchanged; /stats and /metrics aggregate the shards' answers
//     next to the Front's counters; /shards answers the partition.
//
// Transient shard failures (429 admission rejections, refused connections
// and — for queries — connection resets) are absorbed by the clients'
// retry/backoff; a shard failure that survives the retries surfaces as 502
// (or the shard's own 429) to the caller. Every shard exchange carries the
// inbound request's context and, when it is traced, its trace identity: a
// caller that went away or ran out of time aborts its scatter (answered 499
// or 408, counted against no shard) — except the insert and delete of a
// cross-shard update, which once begun run to completion whatever becomes of
// the caller. The insert at the target goes first, so a refused or failed
// insert leaves the old version where it was. Between the two writes a query
// reaching both shards sees the ID twice and answers it once (mergeQuery
// compacts, shard.KNNMerger keeps the closer entry). If the delete fails, the
// router records the old copy's shards, and queries skip the ID's answers there.
package router

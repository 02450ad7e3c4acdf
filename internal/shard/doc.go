// Package shard partitions the Hilbert key space across N store instances.
//
// A Map splits the Hilbert index space [0, geom.HilbertRange) into N
// contiguous ranges. Every object belongs to exactly one shard — the one
// owning the Hilbert index of its spatial key's center — so mutations route
// to a single store and the shards hold disjoint object sets. Queries route
// to the minimal set of shards whose region can hold a qualifying object:
//
//   - Overlapping maps a window (or point) to the shards whose Hilbert
//     region intersects the window expanded by the largest key half-extent
//     seen (an object's center can sit up to that far outside any window the
//     object intersects).
//   - ShardDists lower-bounds, per shard, the distance from a query point to
//     any object owned by that shard — the bound the k-NN scatter-gather
//     uses to prune shards, mirroring the monotone stop of the best-first
//     leaf traversal (Organization.NearestQuery / rtree.NearestLeaves).
//
// Both run a recursive descent over aligned 2^k × 2^k cell blocks of the
// curve. An aligned block is a recursion square of the curve, so its cells
// occupy one contiguous index interval (geom.HilbertBlockRange): a block
// whose interval lies inside one shard's range resolves immediately, and the
// descent recurses only into blocks that straddle a shard boundary — at most
// one per boundary per level, so the walk touches O(4 · HilbertOrder · N)
// blocks regardless of how fine the partition is.
//
// The spatial reasoning assumes objects live in the unit square (the clamp
// in geom.HilbertCellOf is monotone, so clamped centers preserve window
// coverage exactly, but an object entirely outside [0,1]² could be closer to
// a query point than its shard's clamped region suggests). The data
// generator and the wire API both produce unit-square data.
package shard

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Scatter-gather query engines over a ShardedStore.
//
// A query is scattered across the K shards (optionally on a thread pool),
// each shard runs the ordinary SS-tree traversal (query/knn_traversal.h)
// into a shard-local best-known list, and the lists are folded with
// BestKnownList::MergeFrom before one final-Sk filter. The merge
// invariant (best_known_list.h) makes the merged kNN answer bit-identical
// to a single unsharded index over the same dataset — independent of K,
// of the partitioning policy, and of how many threads ran the scatter.
// Pinned by tests/shard_query_test.cc.
//
// Determinism under fault injection: each (query, shard) pair runs inside
// its own FaultQueryScope whose id is a pure mix of the caller's ambient
// query id (0 when none) and the shard index, so ArmRandom fault placement
// is reproducible regardless of scatter interleaving.
//
// Deadlines: a node budget on the query is split fairly across the shards
// up front (shard j gets budget/K, +1 for the first budget%K shards), so a
// serial scatter cannot let the first shard eat the whole budget. Wall
// deadlines are absolute time points and shared by all shards as-is. If
// any shard's traversal expires, the merged answer is kBestEffort and
// carries only entries whose membership in the exact answer is certain
// (the proven-subset guarantee of TakeAnswersWithin, applied to the
// minimum pending bound over all shards).

#ifndef HYPERDOM_SHARD_SHARDED_QUERY_H_
#define HYPERDOM_SHARD_SHARDED_QUERY_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "dominance/criterion.h"
#include "exec/thread_pool.h"
#include "query/knn_types.h"
#include "query/range.h"
#include "shard/sharded_store.h"

namespace hyperdom {
namespace shard {

/// Runs the kNN query of `sq` against every shard and merges the answers.
///
/// `pool` may be null (serial scatter) — REQUIRED when the caller already
/// runs on a pool worker (a worker waiting on its own pool deadlocks).
/// `per_shard_stats`, when non-null, is resized to K and receives each
/// shard's traversal counters (the merged result's stats are the sum, plus
/// the merge/filter work itself).
///
/// Fails on an unbuilt store, a query of the wrong dimensionality or
/// injected faults ("shard/scatter"); requires kDeferred pruning (the merge
/// invariant does not hold for the eager ablation mode).
Result<KnnResult> ShardedKnn(const ShardedStore& store, const Hypersphere& sq,
                             const DominanceCriterion& criterion,
                             const KnnOptions& options,
                             ThreadPool* pool = nullptr,
                             std::vector<KnnStats>* per_shard_stats = nullptr);

/// Runs the range query of `sq` against every shard and concatenates the
/// per-shard answers. Range membership is per-entry, so the merged sets
/// equal the unsharded answer; both are returned sorted by ascending id,
/// the order RangeSearch returns too. Deadline budget splitting,
/// completeness propagation and the dimensionality check match ShardedKnn.
Result<RangeResult> ShardedRange(const ShardedStore& store,
                                 const Hypersphere& sq, double range,
                                 const Deadline& deadline = Deadline::Unbounded(),
                                 ThreadPool* pool = nullptr);

}  // namespace shard
}  // namespace hyperdom

#endif  // HYPERDOM_SHARD_SHARDED_QUERY_H_

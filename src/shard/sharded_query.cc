// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "shard/sharded_query.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "query/knn.h"
#include "query/knn_traversal.h"

namespace hyperdom {
namespace shard {

namespace {

constexpr uint64_t kUnlimitedBudget = std::numeric_limits<uint64_t>::max();

// The fault-scope id of (ambient query, shard): a pure mix, so fault
// placement inside a shard's traversal is deterministic in (outer id,
// shard index) no matter how the scatter interleaves across threads.
uint64_t SubQueryId(uint64_t outer, size_t shard) {
  return SplitMix64(outer ^ SplitMix64(static_cast<uint64_t>(shard) + 1));
}

// Shard j's slice of a node budget: budget/K, +1 for the first budget%K
// shards. Sums to the whole budget, and no shard's share exceeds any
// other's by more than one node — the fairness property pinned by the
// budget-skew regression test.
Deadline SplitDeadline(const Deadline& deadline, size_t shard, size_t shards) {
  if (deadline.node_budget() == kUnlimitedBudget || shards <= 1) {
    return deadline;
  }
  const uint64_t budget = deadline.node_budget();
  const uint64_t share =
      budget / shards + (shard < budget % shards ? uint64_t{1} : uint64_t{0});
  Deadline d = deadline;
  d.SetNodeBudget(share);
  return d;
}

// MinDist reads as many query coordinates as the store has dimensions.
Status CheckQueryDim(const ShardedStore& store, const Hypersphere& sq) {
  if (store.dim() != 0 && sq.dim() != store.dim()) {
    return Status::InvalidArgument(
        "query dimensionality " + std::to_string(sq.dim()) +
        " does not match store dimensionality " + std::to_string(store.dim()));
  }
  return Status::OK();
}

void SortById(std::vector<DataEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const DataEntry& a, const DataEntry& b) { return a.id < b.id; });
}

}  // namespace

Result<KnnResult> ShardedKnn(const ShardedStore& store, const Hypersphere& sq,
                             const DominanceCriterion& criterion,
                             const KnnOptions& options, ThreadPool* pool,
                             std::vector<KnnStats>* per_shard_stats) {
  if (store.shards() == 0) {
    return Status::InvalidArgument("sharded store is not built");
  }
  if (options.pruning_mode != KnnPruningMode::kDeferred) {
    return Status::InvalidArgument(
        "sharded kNN requires deferred pruning (the merge invariant does "
        "not hold for the eager ablation mode)");
  }
  HYPERDOM_RETURN_NOT_OK(CheckQueryDim(store, sq));
  const size_t shards = store.shards();

  std::vector<KnnStats> local_stats;
  std::vector<KnnStats>* stats_out = per_shard_stats ? per_shard_stats
                                                     : &local_stats;
  stats_out->assign(shards, KnnStats{});

  std::vector<BestKnownList> lists;
  lists.reserve(shards);
  for (size_t j = 0; j < shards; ++j) {
    lists.emplace_back(&criterion, &sq, options.k, options.pruning_mode,
                       &(*stats_out)[j]);
  }
  std::vector<TraversalGuard> guards;
  guards.reserve(shards);
  for (size_t j = 0; j < shards; ++j) {
    guards.emplace_back(SplitDeadline(options.deadline, j, shards));
  }
  std::vector<Status> statuses(shards, Status::OK());

  const uint64_t outer_qid =
      FaultQueryScope::Active() ? FaultQueryScope::CurrentQueryId() : 0;

  ParallelFor(pool, shards, [&](size_t j) {
    // The scope comes first so even the scatter fault point itself draws
    // from the per-(query, shard) stream.
    FaultQueryScope scope(SubQueryId(outer_qid, j));
    Status fault = HYPERDOM_FAULT_POINT_STATUS("shard/scatter");
    if (!fault.ok()) {
      statuses[j] = std::move(fault);
      return;
    }
    HYPERDOM_SPAN(span, "shard/query");
    HYPERDOM_SPAN_ANNOTATE(span, "shard", static_cast<uint64_t>(j));
    store.CountShardQuery(j);
    const Shard& s = store.shard(j);
    if (s.ss == nullptr) return;
    KnnSearchInto(*s.ss, sq, options.strategy, /*overlay=*/nullptr, &lists[j],
                  &(*stats_out)[j], &guards[j]);
  });

  for (size_t j = 0; j < shards; ++j) {
    HYPERDOM_RETURN_NOT_OK(statuses[j]);
  }

  KnnResult result;
  // The merged list replays every shard candidate through the case-3
  // test; its counters (and the final filter's) land in result.stats on
  // top of the summed per-shard counters below.
  BestKnownList merged(&criterion, &sq, options.k, options.pruning_mode,
                       &result.stats);
  const auto merge_start = std::chrono::steady_clock::now();
  for (size_t j = 0; j < shards; ++j) {
    merged.MergeFrom(std::move(lists[j]));
  }
  HYPERDOM_HISTOGRAM_RECORD(
      obs::kShardMergeDuration,
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - merge_start)
                                .count()));

  bool expired = false;
  double pending = std::numeric_limits<double>::infinity();
  for (const TraversalGuard& g : guards) {
    expired = expired || g.expired();
    pending = std::min(pending, g.pending_bound());
  }
  knn_internal::Finalize(expired, pending, &merged, &result);
  for (const KnnStats& s : *stats_out) result.stats += s;
  return result;
}

Result<RangeResult> ShardedRange(const ShardedStore& store,
                                 const Hypersphere& sq, double range,
                                 const Deadline& deadline, ThreadPool* pool) {
  if (store.shards() == 0) {
    return Status::InvalidArgument("sharded store is not built");
  }
  HYPERDOM_RETURN_NOT_OK(CheckQueryDim(store, sq));
  if (range < 0.0) {
    return Status::InvalidArgument("range must be >= 0");
  }
  const size_t shards = store.shards();

  std::vector<RangeResult> partials(shards);
  std::vector<Status> statuses(shards, Status::OK());
  const uint64_t outer_qid =
      FaultQueryScope::Active() ? FaultQueryScope::CurrentQueryId() : 0;

  ParallelFor(pool, shards, [&](size_t j) {
    FaultQueryScope scope(SubQueryId(outer_qid, j));
    Status fault = HYPERDOM_FAULT_POINT_STATUS("shard/scatter");
    if (!fault.ok()) {
      statuses[j] = std::move(fault);
      return;
    }
    HYPERDOM_SPAN(span, "shard/query");
    HYPERDOM_SPAN_ANNOTATE(span, "shard", static_cast<uint64_t>(j));
    store.CountShardQuery(j);
    const Shard& s = store.shard(j);
    if (s.ss == nullptr) return;
    partials[j] =
        RangeSearch(*s.ss, sq, range, SplitDeadline(deadline, j, shards));
  });

  for (size_t j = 0; j < shards; ++j) {
    HYPERDOM_RETURN_NOT_OK(statuses[j]);
  }

  RangeResult result;
  for (RangeResult& p : partials) {
    result.certain.insert(result.certain.end(),
                          std::make_move_iterator(p.certain.begin()),
                          std::make_move_iterator(p.certain.end()));
    result.possible.insert(result.possible.end(),
                           std::make_move_iterator(p.possible.begin()),
                           std::make_move_iterator(p.possible.end()));
    if (p.completeness == Completeness::kBestEffort) {
      result.completeness = Completeness::kBestEffort;
    }
    result.stats += p.stats;
  }
  // Canonical order: ids are unique across shards, so id order is total
  // and independent of K, policy, and traversal order.
  SortById(&result.certain);
  SortById(&result.possible);
  return result;
}

}  // namespace shard
}  // namespace hyperdom

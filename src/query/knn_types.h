// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shared types of the kNN machinery: traversal strategy, pruning-mode
// semantics, per-query counters and results. Split out of knn.h so the
// best-known list and the per-index searchers can share them.

#ifndef HYPERDOM_QUERY_KNN_TYPES_H_
#define HYPERDOM_QUERY_KNN_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "index/entry.h"

namespace hyperdom {

/// Index traversal strategies (paper Section 7.2).
enum class SearchStrategy {
  kDepthFirst,  ///< DF of Roussopoulos et al. [26]
  kBestFirst,   ///< HS of Hjaltason & Samet [15]
};

/// How case-2 dominance prunes are applied (see DESIGN.md, "kNN answer
/// semantics"): Definition 2 filters by the FINAL Sk, but the paper's
/// Section-6 pseudocode discards case-2 entries against the INTERIM Sk —
/// and interim dominance does not imply final dominance, so the verbatim
/// algorithm can under-return even with an exact criterion.
enum class KnnPruningMode {
  /// Park case-2-dominated entries and re-check them against the final Sk.
  /// With a correct+sound criterion the result equals Definition 2 exactly
  /// (recall 100%, matching the paper's measured claim). The default.
  kDeferred,
  /// The paper's pseudocode verbatim: discard on interim dominance. Kept
  /// for the ablation benchmark that quantifies the difference.
  kEager,
};

/// Counters describing one query execution.
struct KnnStats {
  uint64_t nodes_visited = 0;      ///< index nodes expanded
  uint64_t nodes_pruned = 0;       ///< subtrees cut by the distk bound
  uint64_t entries_accessed = 0;   ///< data entries reaching list maintenance
  uint64_t dominance_checks = 0;   ///< criterion invocations
  uint64_t pruned_case2 = 0;       ///< entries dropped by dominance (case 2)
  uint64_t pruned_case3 = 0;       ///< entries dropped by distance (case 3)
  uint64_t removed_case1 = 0;      ///< list entries evicted after insert
  uint64_t uncertain_verdicts = 0; ///< kUncertain verdicts (never pruned on)
  uint64_t nodes_deadline_skipped = 0;  ///< subtrees cut by deadline expiry

  /// Field-wise sum: how per-shard and per-query counters aggregate.
  KnnStats& operator+=(const KnnStats& other) {
    nodes_visited += other.nodes_visited;
    nodes_pruned += other.nodes_pruned;
    entries_accessed += other.entries_accessed;
    dominance_checks += other.dominance_checks;
    pruned_case2 += other.pruned_case2;
    pruned_case3 += other.pruned_case3;
    removed_case1 += other.removed_case1;
    uncertain_verdicts += other.uncertain_verdicts;
    nodes_deadline_skipped += other.nodes_deadline_skipped;
    return *this;
  }
};

/// Result of a kNN query.
struct KnnResult {
  /// The answer set, ordered by ascending MaxDist to the query.
  /// When `completeness` is kBestEffort this is a certified subset of the
  /// exact Definition-2 answer (see docs/robustness.md §7).
  std::vector<DataEntry> answers;
  Completeness completeness = Completeness::kExact;
  KnnStats stats;
};

/// Options shared by every index's kNN searcher.
struct KnnOptions {
  size_t k = 10;
  SearchStrategy strategy = SearchStrategy::kBestFirst;
  KnnPruningMode pruning_mode = KnnPruningMode::kDeferred;
  /// Per-query time/work budget; unbounded by default. On expiry the
  /// searcher stops descending and returns a flagged best-effort answer.
  Deadline deadline;
};

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_TYPES_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The batch query engine: shard a vector of query hyperspheres across a
// worker pool, each worker running the existing single-query drivers.
// Per-query isolation is the unit of parallelism — every query gets its
// own TraversalGuard (deadline held by value), its own KnnStats, its own
// fault stream (FaultQueryScope keyed by the query's batch index), and,
// for stochastic drivers, its own Rng forked as Rng(seed).Fork(index) —
// so the i-th result is a pure function of (tree, queries[i], options),
// bit-identical at any thread count. See docs/performance.md.
//
// Aggregate counters merge through the sharded obs registry exactly as in
// serial execution (each worker thread lands on its own shard); the
// BatchStats totals returned here are the arithmetic sum of the per-query
// stats, so exports and results reconcile by construction.

#ifndef HYPERDOM_EXEC_BATCH_H_
#define HYPERDOM_EXEC_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "dominance/criterion.h"
#include "exec/thread_pool.h"
#include "index/m_tree.h"
#include "index/rstar_tree.h"
#include "index/vp_tree.h"
#include "query/knn_types.h"
#include "query/range.h"

namespace hyperdom {

/// Execution knobs shared by the batch entry points.
struct BatchOptions {
  /// Worker threads; 0 picks the hardware concurrency. 1 runs inline on
  /// the calling thread (still through the per-query isolation path, so
  /// results match the threaded runs bit for bit).
  size_t threads = 1;
  /// Base seed for per-query Rng streams (query i gets Rng(seed).Fork(i)).
  /// The kNN/range drivers are deterministic and ignore it; it feeds
  /// future stochastic drivers routed through RunBatch().
  uint64_t seed = 0;
  /// Optional externally owned pool to run on; threads is ignored when
  /// set. The pool must outlive the call.
  ThreadPool* pool = nullptr;
};

/// Aggregate view of one batch run.
struct BatchStats {
  uint64_t queries = 0;         ///< results produced (== queries.size())
  uint64_t best_effort = 0;     ///< results flagged kBestEffort
  KnnStats totals;              ///< field-wise sum of per-query KnnStats
  uint64_t wall_nanos = 0;      ///< end-to-end batch wall time
  size_t threads = 1;           ///< workers the run actually used
};

/// Result of a batch kNN run: results[i] answers queries[i], and is
/// bit-identical to running the serial driver on queries[i] alone.
struct BatchKnnResult {
  std::vector<KnnResult> results;
  BatchStats stats;
};

/// Result of a batch range run; same per-index correspondence.
struct BatchRangeResult {
  std::vector<RangeResult> results;
  RangeStats totals;
  uint64_t queries = 0;
  uint64_t best_effort = 0;
  uint64_t wall_nanos = 0;
  size_t threads = 1;
};

/// Batch kNN over each of the four indexes. `criterion` is shared by all
/// workers and must be thread-safe for concurrent Decide calls (every
/// criterion in dominance/ is: they are stateless or use atomics).
BatchKnnResult BatchKnn(const SsTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec);
BatchKnnResult BatchKnn(const RStarTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec);
BatchKnnResult BatchKnn(const VpTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec);
BatchKnnResult BatchKnn(const MTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec);

/// Batch range search over the SS-tree; the per-query deadline is applied
/// independently to every query.
BatchRangeResult BatchRange(const SsTree& tree,
                            const std::vector<Hypersphere>& queries,
                            double range, const Deadline& deadline,
                            const BatchOptions& exec);

/// Per-query execution context handed to RunBatch bodies.
struct QueryContext {
  size_t index;  ///< the query's position in the batch
  Rng rng;       ///< independent stream: Rng(exec.seed).Fork(index)
};

/// \brief Generic batch scaffold: runs `body(ctx)` once per query index
/// with the per-query fault scope and Rng installed, on `exec`'s pool.
///
/// BatchKnn/BatchRange are built on this; a caller with its own per-query
/// driver can reuse it to inherit the same determinism contract. `body`
/// must be concurrency-safe for distinct indices. Returns the workers used.
size_t RunBatch(size_t n, const BatchOptions& exec,
                const std::function<void(QueryContext&)>& body);

}  // namespace hyperdom

#endif  // HYPERDOM_EXEC_BATCH_H_

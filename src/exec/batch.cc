// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "exec/batch.h"

#include "common/fault.h"
#include "common/stopwatch.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/knn.h"

namespace hyperdom {

namespace {

// The batch scaffold: runs `body(i)` once per query index with the
// per-query fault scope installed, on `exec`'s pool. `body` must be
// concurrency-safe for distinct indices. Returns the workers used.
template <typename Body>
size_t RunBatch(size_t n, const BatchOptions& exec, const Body& body) {
  const auto run_one = [&body](size_t i) {
    // Per-query isolation: the fault stream keys on the batch index, so
    // query i's execution is identical whether it runs first, last, or on
    // another thread.
    FaultQueryScope fault_scope(static_cast<uint64_t>(i));
    body(i);
  };

  if (exec.pool != nullptr) {
    ParallelFor(exec.pool, n, run_one);
    return exec.pool->size();
  }
  const size_t threads = ThreadPool::ResolveThreads(exec.threads);
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) run_one(i);
    return 1;
  }
  ThreadPool pool(threads);
  ParallelFor(&pool, n, run_one);
  return threads;
}

}  // namespace

BatchKnnResult BatchKnn(const SsTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec) {
  HYPERDOM_SPAN(span, "batch/knn");
  const KnnSearcher searcher(&criterion, options);
  BatchKnnResult batch;
  batch.results.resize(queries.size());
  Stopwatch watch;
  batch.stats.threads = RunBatch(queries.size(), exec, [&](size_t i) {
    batch.results[i] = searcher.Search(tree, queries[i]);
  });
  batch.stats.wall_nanos = watch.ElapsedNs();
  batch.stats.queries = queries.size();
  for (const KnnResult& result : batch.results) {
    batch.stats.totals += result.stats;
    if (result.completeness == Completeness::kBestEffort) {
      ++batch.stats.best_effort;
    }
  }
  HYPERDOM_COUNTER_INC_L(obs::kBatchRuns, "kind", "knn");
  HYPERDOM_COUNTER_ADD_L(obs::kBatchQueries, "kind", "knn", queries.size());
  HYPERDOM_HISTOGRAM_RECORD_L(obs::kBatchDuration, "kind", "knn",
                              batch.stats.wall_nanos);
  HYPERDOM_SPAN_ANNOTATE(span, "queries",
                         static_cast<uint64_t>(queries.size()));
  HYPERDOM_SPAN_ANNOTATE(span, "threads",
                         static_cast<uint64_t>(batch.stats.threads));
  return batch;
}

BatchRangeResult BatchRange(const SsTree& tree,
                            const std::vector<Hypersphere>& queries,
                            double range, const Deadline& deadline,
                            const BatchOptions& exec) {
  HYPERDOM_SPAN(span, "batch/range");
  BatchRangeResult batch;
  batch.results.resize(queries.size());
  Stopwatch watch;
  batch.threads = RunBatch(queries.size(), exec, [&](size_t i) {
    batch.results[i] = RangeSearch(tree, queries[i], range, deadline);
  });
  batch.wall_nanos = watch.ElapsedNs();
  batch.queries = queries.size();
  for (const RangeResult& result : batch.results) {
    batch.totals += result.stats;
    if (result.completeness == Completeness::kBestEffort) {
      ++batch.best_effort;
    }
  }
  HYPERDOM_COUNTER_INC_L(obs::kBatchRuns, "kind", "range");
  HYPERDOM_COUNTER_ADD_L(obs::kBatchQueries, "kind", "range",
                         queries.size());
  HYPERDOM_HISTOGRAM_RECORD_L(obs::kBatchDuration, "kind", "range",
                              batch.wall_nanos);
  HYPERDOM_SPAN_ANNOTATE(span, "queries",
                         static_cast<uint64_t>(queries.size()));
  return batch;
}

}  // namespace hyperdom

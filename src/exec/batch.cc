// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "exec/batch.h"

#include <memory>
#include <utility>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/index_knn.h"
#include "query/knn.h"

namespace hyperdom {

namespace {

// The shared shape of the four BatchKnn overloads: `run_one(sq)` executes
// the index's existing single-query driver.
template <typename RunOne>
BatchKnnResult RunBatchKnn(const std::vector<Hypersphere>& queries,
                           const BatchOptions& exec, const RunOne& run_one) {
  HYPERDOM_SPAN(span, "batch/knn");
  BatchKnnResult batch;
  batch.results.resize(queries.size());
  Stopwatch watch;
  batch.stats.threads =
      RunBatch(queries.size(), exec, [&](QueryContext& ctx) {
        batch.results[ctx.index] = run_one(queries[ctx.index]);
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

}  // namespace

size_t RunBatch(size_t n, const BatchOptions& exec,
                const std::function<void(QueryContext&)>& body) {
  const Rng base(exec.seed);
  const auto run_one = [&base, &body](size_t i) {
    // Per-query isolation: the fault stream keys on the batch index and
    // the Rng stream forks from it, so query i's execution is identical
    // whether it runs first, last, or on another thread.
    FaultQueryScope fault_scope(static_cast<uint64_t>(i));
    QueryContext ctx{i, base.Fork(static_cast<uint64_t>(i))};
    body(ctx);
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

BatchKnnResult BatchKnn(const SsTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec) {
  const KnnSearcher searcher(&criterion, options);
  return RunBatchKnn(queries, exec, [&](const Hypersphere& sq) {
    return searcher.Search(tree, sq);
  });
}

BatchKnnResult BatchKnn(const RStarTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec) {
  return RunBatchKnn(queries, exec, [&](const Hypersphere& sq) {
    return RStarKnnSearch(tree, sq, criterion, options);
  });
}

BatchKnnResult BatchKnn(const VpTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec) {
  return RunBatchKnn(queries, exec, [&](const Hypersphere& sq) {
    return VpTreeKnnSearch(tree, sq, criterion, options);
  });
}

BatchKnnResult BatchKnn(const MTree& tree,
                        const std::vector<Hypersphere>& queries,
                        const DominanceCriterion& criterion,
                        const KnnOptions& options, const BatchOptions& exec) {
  return RunBatchKnn(queries, exec, [&](const Hypersphere& sq) {
    return MTreeKnnSearch(tree, sq, criterion, options);
  });
}

BatchRangeResult BatchRange(const SsTree& tree,
                            const std::vector<Hypersphere>& queries,
                            double range, const Deadline& deadline,
                            const BatchOptions& exec) {
  HYPERDOM_SPAN(span, "batch/range");
  BatchRangeResult batch;
  batch.results.resize(queries.size());
  Stopwatch watch;
  batch.threads = RunBatch(queries.size(), exec, [&](QueryContext& ctx) {
    batch.results[ctx.index] =
        RangeSearch(tree, queries[ctx.index], range, deadline);
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

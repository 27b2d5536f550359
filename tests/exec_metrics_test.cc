// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Reconciliation between the batch engine's returned aggregates and the
// process-wide metrics registry: per-query stats recorded by the kNN/range
// drivers from worker threads must merge through the sharded registry into
// exactly the sums BatchStats reports, at any thread count. This is the
// export-facing half of the determinism contract — an operator reading
// --metrics-out sees numbers that add up.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "exec/batch.h"
#include "obs/metrics.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> TestData(uint64_t seed, size_t n) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

uint64_t CounterValue(const obs::MetricDef& def, std::string_view key,
                      std::string_view value) {
  return obs::MetricsRegistry::Instance()
      .GetCounter(def, key, value)
      ->Value();
}

TEST(ExecMetricsTest, BatchKnnCountersMatchReturnedTotals) {
  const auto data = TestData(8100, 800);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion criterion;
  KnnOptions options;
  options.k = 5;
  const auto queries = MakeKnnQueries(data, 24, 8101);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    obs::MetricsRegistry::Instance().ResetAll();
    BatchOptions exec;
    exec.threads = threads;
    const BatchKnnResult batch =
        BatchKnn(tree, queries, criterion, options, exec);

    // Driver-side per-query counters, merged across worker shards, must
    // equal the arithmetic sums the batch returned.
    EXPECT_EQ(CounterValue(obs::kKnnQueries, "index", "ss"),
              batch.stats.queries)
        << threads << " threads";
    EXPECT_EQ(CounterValue(obs::kKnnNodesVisited, "index", "ss"),
              batch.stats.totals.nodes_visited)
        << threads << " threads";
    EXPECT_EQ(CounterValue(obs::kKnnNodesPruned, "index", "ss"),
              batch.stats.totals.nodes_pruned)
        << threads << " threads";
    EXPECT_EQ(CounterValue(obs::kKnnEntriesAccessed, "index", "ss"),
              batch.stats.totals.entries_accessed)
        << threads << " threads";
    EXPECT_EQ(CounterValue(obs::kKnnDominanceChecks, "index", "ss"),
              batch.stats.totals.dominance_checks)
        << threads << " threads";

    // Batch-engine counters.
    EXPECT_EQ(CounterValue(obs::kBatchRuns, "kind", "knn"), 1u);
    EXPECT_EQ(CounterValue(obs::kBatchQueries, "kind", "knn"),
              queries.size());
  }
}

TEST(ExecMetricsTest, BatchRangeCountersMatchReturnedTotals) {
  const auto data = TestData(8200, 600);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const auto queries = MakeKnnQueries(data, 15, 8201);

  obs::MetricsRegistry::Instance().ResetAll();
  BatchOptions exec;
  exec.threads = 8;
  const BatchRangeResult batch =
      BatchRange(tree, queries, 30.0, Deadline::Unbounded(), exec);

  EXPECT_EQ(obs::MetricsRegistry::Instance()
                .GetCounter(obs::kRangeQueries)
                ->Value(),
            queries.size());
  EXPECT_EQ(CounterValue(obs::kBatchRuns, "kind", "range"), 1u);
  EXPECT_EQ(CounterValue(obs::kBatchQueries, "kind", "range"),
            queries.size());
  EXPECT_EQ(batch.queries, queries.size());
}

TEST(ExecMetricsTest, PoolRegistersItsInstruments) {
  obs::MetricsRegistry::Instance().ResetAll();
  ThreadPool pool(3);
  std::atomic<int> runs{0};
  for (int i = 0; i < 5; ++i) pool.Submit([&runs] { runs.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(runs.load(), 5);
  EXPECT_DOUBLE_EQ(
      obs::MetricsRegistry::Instance().GetGauge(obs::kExecPoolThreads.name)
          ->Value(),
      3.0);
  EXPECT_EQ(obs::MetricsRegistry::Instance()
                .GetCounter(obs::kExecTasks)
                ->Value(),
            5u);
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/knn.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "eval/workload.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace hyperdom {
namespace {

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

TEST(KnnLinearScanTest, SmallDatasetReturnsEverything) {
  const std::vector<Hypersphere> data = {Hypersphere({0.0, 0.0}, 1.0),
                                         Hypersphere({5.0, 0.0}, 1.0)};
  HyperbolaCriterion c;
  const KnnResult result =
      KnnLinearScan(data, Hypersphere({1.0, 0.0}, 0.5), 3, c);
  EXPECT_EQ(result.answers.size(), 2u);
}

TEST(KnnLinearScanTest, HandComputableScene) {
  // Query point at origin; objects on the x-axis with radius 0.1.
  // MaxDists: 2.1, 5.1, 9.1, 40.1. With k = 1, Sk = the object at 2.
  // Sk dominates the objects at 9 and 40 (clear margins) but not the one
  // at 5?  f(q)= (5-0.1...)  For the point query: Dom(Sk, S, q) iff
  // dist(q,cS) - dist(q,cSk) > 0.2: 5 - 2 = 3 > 0.2 -> dominated too.
  const std::vector<Hypersphere> data = {
      Hypersphere({2.0, 0.0}, 0.1), Hypersphere({5.0, 0.0}, 0.1),
      Hypersphere({9.0, 0.0}, 0.1), Hypersphere({40.0, 0.0}, 0.1)};
  HyperbolaCriterion c;
  const KnnResult result =
      KnnLinearScan(data, Hypersphere({0.0, 0.0}, 0.0), 1, c);
  EXPECT_EQ(Ids(result), (std::set<uint64_t>{0}));
}

TEST(KnnLinearScanTest, UncertainQueryKeepsAmbiguousNeighbors) {
  // A fat query makes the object at 5 non-dominated: at q = (4, 0),
  // dist to S1 = 1 < dist to S0 = 2.
  const std::vector<Hypersphere> data = {
      Hypersphere({2.0, 0.0}, 0.1), Hypersphere({5.0, 0.0}, 0.1),
      Hypersphere({40.0, 0.0}, 0.1)};
  HyperbolaCriterion c;
  const KnnResult result =
      KnnLinearScan(data, Hypersphere({0.0, 0.0}, 4.0), 1, c);
  EXPECT_TRUE(Ids(result).count(0));
  EXPECT_TRUE(Ids(result).count(1));
  EXPECT_FALSE(Ids(result).count(2));
}

TEST(KnnLinearScanTest, AnswersSortedByMaxDist) {
  SyntheticSpec spec;
  spec.n = 300;
  spec.dim = 3;
  spec.seed = 820;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion c;
  const KnnResult result = KnnLinearScan(data, data[0], 5, c);
  for (size_t i = 1; i < result.answers.size(); ++i) {
    EXPECT_LE(MaxDist(result.answers[i - 1].sphere, data[0]),
              MaxDist(result.answers[i].sphere, data[0]) + 1e-12);
  }
}

class KnnEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<SearchStrategy, size_t, double>> {};

// The central integration property: SS-tree search with the exact criterion
// returns exactly the Definition-2 answer, for both strategies, across k
// and radius regimes.
TEST_P(KnnEquivalenceTest, IndexMatchesLinearScan) {
  const auto [strategy, k, mu] = GetParam();
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 4;
  spec.radius_mean = mu;
  spec.seed = 830 + k;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = k;
  options.strategy = strategy;
  KnnSearcher searcher(&exact, options);

  const auto queries = MakeKnnQueries(data, 15, 831);
  for (const auto& sq : queries) {
    const KnnResult from_index = searcher.Search(tree, sq);
    const KnnResult from_scan = KnnLinearScan(data, sq, k, exact);
    EXPECT_EQ(Ids(from_index), Ids(from_scan));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnnEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBestFirst,
                                         SearchStrategy::kDepthFirst),
                       ::testing::Values<size_t>(1, 5, 20),
                       ::testing::Values(5.0, 20.0)));

TEST(KnnSearcherTest, WeakerCriterionReturnsSuperset) {
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 4;
  spec.seed = 840;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());

  HyperbolaCriterion exact;
  MinMaxCriterion weak;
  KnnOptions options;
  options.k = 10;
  KnnSearcher exact_searcher(&exact, options);
  KnnSearcher weak_searcher(&weak, options);

  const auto queries = MakeKnnQueries(data, 10, 841);
  for (const auto& sq : queries) {
    const auto exact_ids = Ids(exact_searcher.Search(tree, sq));
    const auto weak_ids = Ids(weak_searcher.Search(tree, sq));
    for (uint64_t id : exact_ids) {
      EXPECT_TRUE(weak_ids.count(id))
          << "MinMax-pruned search lost an exact answer";
    }
    EXPECT_GE(weak_ids.size(), exact_ids.size());
  }
}

TEST(KnnSearcherTest, EagerModeIsSubsetOfDeferred) {
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 4;
  spec.seed = 850;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());

  HyperbolaCriterion exact;
  KnnOptions deferred;
  deferred.k = 5;
  KnnOptions eager = deferred;
  eager.pruning_mode = KnnPruningMode::kEager;
  KnnSearcher deferred_searcher(&exact, deferred);
  KnnSearcher eager_searcher(&exact, eager);

  const auto queries = MakeKnnQueries(data, 10, 851);
  for (const auto& sq : queries) {
    const auto full = Ids(deferred_searcher.Search(tree, sq));
    const auto pruned = Ids(eager_searcher.Search(tree, sq));
    for (uint64_t id : pruned) {
      EXPECT_TRUE(full.count(id)) << "eager returned an extra entry";
    }
  }
}

TEST(KnnSearcherTest, EmptyTreeGivesEmptyResult) {
  SsTree tree(2);
  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  const KnnResult result = searcher.Search(tree, Hypersphere({0.0, 0.0}, 1.0));
  EXPECT_TRUE(result.answers.empty());
  EXPECT_EQ(result.stats.nodes_visited, 0u);
}

TEST(KnnSearcherTest, StatsArePopulated) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 3;
  spec.seed = 860;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  const KnnResult result = searcher.Search(tree, data[42]);
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_GT(result.stats.entries_accessed, 0u);
  EXPECT_GT(result.stats.dominance_checks, 0u);
}

TEST(KnnSearcherTest, BestFirstAccessesNoMoreEntriesThanDepthFirst) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.seed = 870;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions hs;
  hs.strategy = SearchStrategy::kBestFirst;
  KnnOptions df;
  df.strategy = SearchStrategy::kDepthFirst;
  uint64_t hs_total = 0, df_total = 0;
  for (const auto& sq : MakeKnnQueries(data, 10, 871)) {
    hs_total += KnnSearcher(&exact, hs).Search(tree, sq).stats.entries_accessed;
    df_total += KnnSearcher(&exact, df).Search(tree, sq).stats.entries_accessed;
  }
  // HS's global best-first order is at least as good on aggregate.
  EXPECT_LE(hs_total, df_total);
}

// Every query publishes every {index="ss"} kNN series, the best-effort
// counter included (it adds 0 to an exact query), so an operator's
// dashboard finds each series from the first query on.
TEST(KnnSearcherTest, EveryKnnSeriesIsExportedAfterOneQuery) {
  SyntheticSpec spec;
  spec.n = 200;
  spec.dim = 3;
  spec.seed = 880;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  auto& registry = obs::MetricsRegistry::Instance();
  auto counter = [&](const obs::MetricDef& def) {
    return registry.GetCounter(def, "index", "ss")->Value();
  };
  const uint64_t queries_before = counter(obs::kKnnQueries);
  const uint64_t best_effort_before = counter(obs::kKnnBestEffort);
  const KnnResult result =
      KnnSearcher(&exact, KnnOptions{}).Search(tree, data[7]);
  ASSERT_EQ(result.completeness, Completeness::kExact);

  EXPECT_EQ(counter(obs::kKnnQueries), queries_before + 1);
  EXPECT_EQ(counter(obs::kKnnBestEffort), best_effort_before);
  const std::string text = registry.RenderPrometheus();
  for (const obs::MetricDef* def :
       {&obs::kKnnQueries, &obs::kKnnBestEffort, &obs::kKnnNodesVisited,
        &obs::kKnnNodesPruned, &obs::kKnnEntriesAccessed,
        &obs::kKnnDominanceChecks, &obs::kKnnPrunedCase2,
        &obs::kKnnPrunedCase3, &obs::kKnnRemovedCase1,
        &obs::kKnnUncertainVerdicts, &obs::kKnnDeadlineSkippedNodes}) {
    EXPECT_NE(text.find(obs::LabeledName(def->name, "index", "ss") + " "),
              std::string::npos)
        << def->name;
  }
  EXPECT_NE(text.find(std::string(obs::kKnnQueryDuration.name) +
                      "_count{index=\"ss\"} "),
            std::string::npos);
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Cross-index equivalence: all four indexes — SS-tree, R*-tree, VP-tree,
// M-tree — must return exactly the Definition-2 answer set when searched
// with the exact criterion in deferred mode, i.e. identical to each other
// and to the linear scan, for both traversal strategies.

#include "query/index_knn.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <string_view>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "eval/workload.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

class IndexEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SearchStrategy, size_t>> {};

TEST_P(IndexEquivalenceTest, AllIndexesMatchLinearScan) {
  const auto [strategy, k] = GetParam();
  SyntheticSpec spec;
  spec.n = 2500;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 2100 + k;
  const auto data = GenerateSynthetic(spec);

  SsTree ss_tree(4);
  ASSERT_TRUE(ss_tree.BulkLoad(data).ok());
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(4);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = k;
  options.strategy = strategy;
  KnnSearcher ss_searcher(&exact, options);

  for (const auto& sq : MakeKnnQueries(data, 12, 2101)) {
    const auto truth = Ids(KnnLinearScan(data, sq, k, exact));
    EXPECT_EQ(Ids(ss_searcher.Search(ss_tree, sq)), truth) << "SS-tree";
    EXPECT_EQ(Ids(RStarKnnSearch(rstar, sq, exact, options)), truth)
        << "R*-tree";
    EXPECT_EQ(Ids(VpTreeKnnSearch(vp, sq, exact, options)), truth)
        << "VP-tree";
    EXPECT_EQ(Ids(MTreeKnnSearch(mtree, sq, exact, options)), truth)
        << "M-tree";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBestFirst,
                                         SearchStrategy::kDepthFirst),
                       ::testing::Values<size_t>(1, 5, 20)));

TEST(IndexKnnTest, EmptyIndexesGiveEmptyResults) {
  HyperbolaCriterion exact;
  KnnOptions options;
  const Hypersphere sq({0.0, 0.0}, 1.0);
  RStarTree rstar(2);
  EXPECT_TRUE(RStarKnnSearch(rstar, sq, exact, options).answers.empty());
  VpTree vp;
  ASSERT_TRUE(vp.Build({}).ok());
  EXPECT_TRUE(VpTreeKnnSearch(vp, sq, exact, options).answers.empty());
  MTree mtree(2);
  EXPECT_TRUE(MTreeKnnSearch(mtree, sq, exact, options).answers.empty());
}

TEST(IndexKnnTest, WeakCriterionSupersetOnEveryIndex) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 3;
  spec.seed = 2102;
  const auto data = GenerateSynthetic(spec);
  RStarTree rstar(3);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(3);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  MinMaxCriterion weak;
  KnnOptions options;
  options.k = 8;
  for (const auto& sq : MakeKnnQueries(data, 6, 2103)) {
    const auto truth = Ids(KnnLinearScan(data, sq, options.k, exact));
    for (const auto& result :
         {RStarKnnSearch(rstar, sq, weak, options),
          VpTreeKnnSearch(vp, sq, weak, options),
          MTreeKnnSearch(mtree, sq, weak, options)}) {
      const auto weak_ids = Ids(result);
      for (uint64_t id : truth) {
        EXPECT_TRUE(weak_ids.count(id)) << "lost an exact answer";
      }
    }
  }
}

TEST(IndexKnnTest, StatsReflectPruning) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 3.0;
  spec.seed = 2104;
  const auto data = GenerateSynthetic(spec);
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 5;
  const KnnResult result = RStarKnnSearch(rstar, data[0], exact, options);
  // A tight query over a large dataset must prune something and must not
  // touch every entry.
  EXPECT_GT(result.stats.nodes_pruned + result.stats.pruned_case3, 0u);
  EXPECT_LT(result.stats.entries_accessed, data.size());
  EXPECT_FALSE(result.answers.empty());
}

// FNV-1a over every answer's id and sphere bits, in answer order.
uint64_t DigestAnswers(uint64_t h, const KnnResult& result) {
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const auto& e : result.answers) {
    mix(e.id);
    for (double c : e.sphere.center()) mix(std::bit_cast<uint64_t>(c));
    mix(std::bit_cast<uint64_t>(e.sphere.radius()));
  }
  return h;
}

// Pins the work of the shared DF/HS drivers (query/knn_traversal.h) on one
// seeded dataset: per index and strategy, the summed traversal counters
// over 20 queries and a digest of every answer. The counts assume
// libstdc++'s std::sort and std::priority_queue tie order (and glibc's
// libm for the generator's Gaussian draws). A deliberate change to a child
// bound or to the visit order (ROADMAP item 5's tighter R*-tree rectangle
// bound) updates them, and the change in node visits is that change's
// measurement.
TEST(IndexKnnTest, TraversalWorkIsPinned) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = 2105;
  const auto data = GenerateSynthetic(spec);
  const auto queries = MakeKnnQueries(data, 20, 2106);
  SsTree ss_tree(4);
  ASSERT_TRUE(ss_tree.BulkLoad(data).ok());
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(4);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());
  HyperbolaCriterion exact;
  auto search = [&](std::string_view index, const Hypersphere& sq,
                    const KnnOptions& options) {
    if (index == "ss") return KnnSearcher(&exact, options).Search(ss_tree, sq);
    if (index == "rstar") return RStarKnnSearch(rstar, sq, exact, options);
    if (index == "vp") return VpTreeKnnSearch(vp, sq, exact, options);
    return MTreeKnnSearch(mtree, sq, exact, options);
  };

  struct Pin {
    std::string_view index;
    SearchStrategy strategy;
    uint64_t nodes_visited;
    uint64_t nodes_pruned;
    uint64_t entries_accessed;
    uint64_t dominance_checks;
  };
  constexpr SearchStrategy kDf = SearchStrategy::kDepthFirst;
  constexpr SearchStrategy kHs = SearchStrategy::kBestFirst;
  const Pin pins[] = {
      {"ss", kDf, 3759, 2481, 59299, 104099},
      {"ss", kHs, 3026, 3214, 46764, 66252},
      {"rstar", kDf, 2502, 3011, 38856, 62187},
      {"rstar", kHs, 2287, 3226, 35048, 37088},
      {"vp", kDf, 10585, 1595, 45796, 63246},
      {"vp", kHs, 10007, 1715, 42526, 44155},
      {"m", kDf, 5189, 2071, 72732, 87268},
      {"m", kHs, 4741, 2519, 66130, 77431},
  };
  // Every index returns the same Definition-2 answers in the same order.
  constexpr uint64_t kAnswerDigest = 0x7050b4efe4a42475ULL;
  for (const Pin& pin : pins) {
    KnnOptions options;
    options.k = 10;
    options.strategy = pin.strategy;
    KnnStats sum;
    uint64_t digest = 0xCBF29CE484222325ULL;
    for (const auto& sq : queries) {
      const KnnResult result = search(pin.index, sq, options);
      sum += result.stats;
      digest = DigestAnswers(digest, result);
    }
    const std::string where = std::string(pin.index) +
                              (pin.strategy == kDf ? " DF" : " HS");
    EXPECT_EQ(sum.nodes_visited, pin.nodes_visited) << where;
    EXPECT_EQ(sum.nodes_pruned, pin.nodes_pruned) << where;
    EXPECT_EQ(sum.entries_accessed, pin.entries_accessed) << where;
    EXPECT_EQ(sum.dominance_checks, pin.dominance_checks) << where;
    EXPECT_EQ(digest, kAnswerDigest) << where << std::hex << " digest 0x"
                                     << digest;
  }
}

}  // namespace
}  // namespace hyperdom

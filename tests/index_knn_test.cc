// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Cross-index equivalence: all three indexes — SS-tree, R*-tree, VP-tree —
// must return exactly the Definition-2 answer set when searched with the
// exact criterion in deferred mode, i.e. identical to each other and to
// the linear scan, for both traversal strategies.

#include "query/index_knn.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "eval/workload.h"
#include "query/knn.h"
#include "test_util.h"

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

  HyperbolaCriterion exact;
  MinMaxCriterion weak;
  KnnOptions options;
  options.k = 8;
  for (const auto& sq : MakeKnnQueries(data, 6, 2103)) {
    const auto truth = Ids(KnnLinearScan(data, sq, options.k, exact));
    for (const auto& result :
         {RStarKnnSearch(rstar, sq, weak, options),
          VpTreeKnnSearch(vp, sq, weak, options)}) {
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

// Pins the work of the shared DF/HS drivers (query/knn_traversal.h) on one
// seeded dataset: per index and strategy (the SS-tree both insertion-built,
// "ss", and bulk-loaded by BulkLoadStr, "ss_str", as every served, sharded
// and mutable SS-tree is), the summed traversal counters
// over 20 queries, the final filter's dominance checks (one per candidate
// past position k, query/best_known_list.h) and a digest of every answer.
// The counts assume libstdc++'s std::sort and std::priority_queue tie
// order (and glibc's libm for the generator's Gaussian draws). A deliberate
// change to a child bound or to the visit order (ROADMAP item 5's tighter
// R*-tree rectangle bound) updates them, and the change in node visits is
// that change's measurement.
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
  SsTree str_tree(4);
  ASSERT_TRUE(str_tree.BulkLoadStr(data).ok());
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  HyperbolaCriterion exact;
  auto search = [&](std::string_view index, const Hypersphere& sq,
                    const KnnOptions& options) {
    if (index == "ss") return KnnSearcher(&exact, options).Search(ss_tree, sq);
    if (index == "ss_str") {
      return KnnSearcher(&exact, options).Search(str_tree, sq);
    }
    if (index == "rstar") return RStarKnnSearch(rstar, sq, exact, options);
    return VpTreeKnnSearch(vp, sq, exact, options);
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
      {"ss", kDf, 3759, 2481, 59299, 12744},
      {"ss", kHs, 3026, 3214, 46764, 7984},
      {"ss_str", kDf, 4004, 1476, 71632, 15225},
      {"ss_str", kHs, 3257, 2223, 57228, 9458},
      {"rstar", kDf, 2502, 3011, 38856, 8986},
      {"rstar", kHs, 2287, 3226, 35048, 6834},
      {"vp", kDf, 10585, 1595, 45796, 8797},
      {"vp", kHs, 10007, 1715, 42526, 7233},
  };
  // Every index returns the same Definition-2 answers in the same order.
  constexpr uint64_t kAnswerDigest = 0x7050b4efe4a42475ULL;
  for (const Pin& pin : pins) {
    KnnOptions options;
    options.k = 10;
    options.strategy = pin.strategy;
    KnnStats sum;
    uint64_t digest = test::kDigestSeed;
    for (const auto& sq : queries) {
      const KnnResult result = search(pin.index, sq, options);
      sum += result.stats;
      digest = test::DigestEntries(digest, result.answers);
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

// HS visits exactly the nodes that any exact traversal knowing only the
// node bounds must visit: those reached from the root through nodes whose
// bound (MinDist to the query) is at most the query's final DistK, the
// MaxDist of answer k-1. So HS's node visits fall only when the tree has
// fewer such nodes, not through the visit order. On knn_paper-shaped data
// (hyperdom_bench: centres Gaussian(1000, 250), mu = 10, d = 4, k = 10;
// here N = 20k and 50 queries) the test checks this per query and pins,
// per builder, the summed node visits and entries accessed.
TEST(IndexKnnTest, BestFirstVisitsExactlyTheNodesWithinFinalDistK) {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 2109;
  const auto data = GenerateSynthetic(spec);
  const auto queries = MakeKnnQueries(data, 50, 2110);
  SsTree inserted(4);
  ASSERT_TRUE(inserted.BulkLoad(data).ok());
  SsTree bulk(4);
  ASSERT_TRUE(bulk.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 10;
  options.strategy = SearchStrategy::kBestFirst;
  const KnnSearcher searcher(&exact, options);

  struct Pin {
    std::string_view builder;
    const SsTree* tree;
    uint64_t nodes_visited;
    uint64_t entries_accessed;
  };
  const Pin pins[] = {{"insertion", &inserted, 6925, 68025},
                      {"bulk", &bulk, 7420, 95211}};
  for (const Pin& pin : pins) {
    KnnStats sum;
    for (const auto& sq : queries) {
      const KnnResult result = searcher.Search(*pin.tree, sq);
      ASSERT_GE(result.answers.size(), options.k);
      const double distk = MaxDist(result.answers[options.k - 1].sphere, sq);
      auto within = [&](auto& self, const SsTreeNode* node) -> uint64_t {
        if (MinDist(node->bounding_sphere(), sq) > distk) return 0;
        uint64_t count = 1;
        if (!node->is_leaf()) {
          for (const auto& child : node->children()) {
            count += self(self, child.get());
          }
        }
        return count;
      };
      EXPECT_EQ(result.stats.nodes_visited, within(within, pin.tree->root()))
          << pin.builder;
      sum += result.stats;
    }
    EXPECT_EQ(sum.nodes_visited, pin.nodes_visited) << pin.builder;
    EXPECT_EQ(sum.entries_accessed, pin.entries_accessed) << pin.builder;
  }
}

// Pins the answers of every criterion, and the whole output of the eager
// ablation mode, on the SS-tree: a change to the best-known list's
// schedule must leave all of them alone. kDeferred: one answer digest per
// criterion over DF and HS, k in {1, 10}, 20 queries. kEager (Hyperbola):
// per strategy and k, an answer digest and all nine summed KnnStats
// fields.
TEST(IndexKnnTest, EveryCriterionAndEagerModeArePinned) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = 2107;
  const auto data = GenerateSynthetic(spec);
  const auto queries = MakeKnnQueries(data, 20, 2108);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  constexpr SearchStrategy kDf = SearchStrategy::kDepthFirst;
  constexpr SearchStrategy kHs = SearchStrategy::kBestFirst;

  struct CriterionPin {
    CriterionKind kind;
    uint64_t digest;
  };
  const CriterionPin criterion_pins[] = {
      {CriterionKind::kMinMax, 0x994c5ad3cc9e77a5ULL},
      {CriterionKind::kMbr, 0xf2732c0e3e7fcbecULL},
      {CriterionKind::kGp, 0x86b78b87057db4e5ULL},
      {CriterionKind::kTrigonometric, 0xf91d483b14a8c235ULL},
      {CriterionKind::kHyperbola, 0xa4272fddcc02a0f9ULL},
      {CriterionKind::kCertified, 0xa4272fddcc02a0f9ULL},
  };
  for (const CriterionPin& pin : criterion_pins) {
    const auto criterion = MakeCriterion(pin.kind);
    uint64_t digest = test::kDigestSeed;
    for (SearchStrategy strategy : {kDf, kHs}) {
      for (size_t k : {1, 10}) {
        KnnOptions options;
        options.k = k;
        options.strategy = strategy;
        const KnnSearcher searcher(criterion.get(), options);
        for (const auto& sq : queries) {
          digest =
              test::DigestEntries(digest, searcher.Search(tree, sq).answers);
        }
      }
    }
    EXPECT_EQ(digest, pin.digest)
        << criterion->name() << std::hex << " digest 0x" << digest;
  }

  struct EagerPin {
    SearchStrategy strategy;
    size_t k;
    uint64_t digest;
    KnnStats stats;  // in KnnStats declaration order
  };
  const EagerPin eager_pins[] = {
      {kDf, 1, 0x5ed2eab9ba6424cfULL,
       {2421, 3598, 35159, 11380, 1935, 30166, 2036, 0, 0}},
      {kDf, 10, 0xa00ae9a005c53cfbULL,
       {3636, 2784, 54906, 92306, 4637, 41820, 4877, 0, 0}},
      {kHs, 1, 0x8493b4d5a87f09c0ULL,
       {1467, 4552, 19027, 8059, 529, 16333, 1135, 0, 0}},
      {kHs, 10, 0x25343c2ba6a08172ULL,
       {2813, 3607, 41236, 48700, 1858, 33945, 1728, 0, 0}},
  };
  HyperbolaCriterion exact;
  for (const EagerPin& pin : eager_pins) {
    KnnOptions options;
    options.k = pin.k;
    options.strategy = pin.strategy;
    options.pruning_mode = KnnPruningMode::kEager;
    const KnnSearcher searcher(&exact, options);
    KnnStats sum;
    uint64_t digest = test::kDigestSeed;
    for (const auto& sq : queries) {
      const KnnResult result = searcher.Search(tree, sq);
      sum += result.stats;
      digest = test::DigestEntries(digest, result.answers);
    }
    const std::string where = std::string(pin.strategy == kDf ? "DF" : "HS") +
                              " k=" + std::to_string(pin.k);
    EXPECT_EQ(digest, pin.digest) << where << std::hex << " digest 0x"
                                  << digest;
    EXPECT_EQ(sum.nodes_visited, pin.stats.nodes_visited) << where;
    EXPECT_EQ(sum.nodes_pruned, pin.stats.nodes_pruned) << where;
    EXPECT_EQ(sum.entries_accessed, pin.stats.entries_accessed) << where;
    EXPECT_EQ(sum.dominance_checks, pin.stats.dominance_checks) << where;
    EXPECT_EQ(sum.pruned_case2, pin.stats.pruned_case2) << where;
    EXPECT_EQ(sum.pruned_case3, pin.stats.pruned_case3) << where;
    EXPECT_EQ(sum.removed_case1, pin.stats.removed_case1) << where;
    EXPECT_EQ(sum.uncertain_verdicts, pin.stats.uncertain_verdicts) << where;
    EXPECT_EQ(sum.nodes_deadline_skipped, pin.stats.nodes_deadline_skipped)
        << where;
  }
}

}  // namespace
}  // namespace hyperdom

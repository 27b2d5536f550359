// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The SS-tree kNN search against the linear scan, and the pinned work of
// the DF/HS drivers (query/knn_traversal.h): the searcher must return
// exactly the Definition-2 answer set with the exact criterion in deferred
// mode, for both traversal strategies, and its node visits are accounted
// against the nodes any exact traversal must visit.

#include "query/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
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
  ASSERT_TRUE(ss_tree.BulkLoadStr(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = k;
  options.strategy = strategy;
  KnnSearcher ss_searcher(&exact, options);

  for (const auto& sq : MakeKnnQueries(data, 12, 2101)) {
    const auto truth = Ids(KnnLinearScan(data, sq, k, exact));
    EXPECT_EQ(Ids(ss_searcher.Search(ss_tree, sq)), truth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBestFirst,
                                         SearchStrategy::kDepthFirst),
                       ::testing::Values<size_t>(1, 5, 20)));

// Pins the work of the shared DF/HS drivers (query/knn_traversal.h) on one
// seeded dataset: per strategy, the summed traversal counters over 20
// queries, the final filter's dominance checks (one per candidate past
// position k, query/best_known_list.h) and a digest of every answer. The
// counts assume libstdc++'s std::sort and std::priority_queue tie order
// (and glibc's libm for the generator's Gaussian draws). A deliberate
// change to a child bound or to the visit order (ROADMAP item 6's tighter
// bounds) updates them, and the change in node visits is that change's
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
  ASSERT_TRUE(ss_tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;

  struct Pin {
    SearchStrategy strategy;
    uint64_t nodes_visited;
    uint64_t nodes_pruned;
    uint64_t entries_accessed;
    uint64_t dominance_checks;
  };
  constexpr SearchStrategy kDf = SearchStrategy::kDepthFirst;
  constexpr SearchStrategy kHs = SearchStrategy::kBestFirst;
  const Pin pins[] = {
      {kDf, 1748, 2232, 29704, 7363},
      {kHs, 1698, 2282, 28738, 6445},
  };
  // Both strategies return the same Definition-2 answers in the same order.
  constexpr uint64_t kAnswerDigest = 0x7050b4efe4a42475ULL;
  for (const Pin& pin : pins) {
    KnnOptions options;
    options.k = 10;
    options.strategy = pin.strategy;
    const KnnSearcher searcher(&exact, options);
    KnnStats sum;
    uint64_t digest = test::kDigestSeed;
    for (const auto& sq : queries) {
      const KnnResult result = searcher.Search(ss_tree, sq);
      sum += result.stats;
      digest = test::DigestEntries(digest, result.answers);
    }
    const std::string where = pin.strategy == kDf ? "DF" : "HS";
    EXPECT_EQ(sum.nodes_visited, pin.nodes_visited) << where;
    EXPECT_EQ(sum.nodes_pruned, pin.nodes_pruned) << where;
    EXPECT_EQ(sum.entries_accessed, pin.entries_accessed) << where;
    EXPECT_EQ(sum.dominance_checks, pin.dominance_checks) << where;
    EXPECT_EQ(digest, kAnswerDigest) << where << std::hex << " digest 0x"
                                     << digest;
  }
}

// knn_paper-shaped data (hyperdom_bench: centres Gaussian(1000, 250),
// mu = 10, d = 4), here N = 20k, for the visit accounting below.
std::vector<Hypersphere> KnnPaperShapedData() {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 2109;
  return GenerateSynthetic(spec);
}

// The nodes of `tree` classified against one query's final DistK (the
// MaxDist of answer k-1). `within`: the nodes reached from the root through
// nodes whose bound (the larger of the MinDist of the node's sphere and of
// its box) is at most `distk`; any exact traversal knowing only the node
// bounds must visit them. `sphere_within`: the same through the sphere
// bounds alone. `slack` (ROADMAP item 6): the nodes in `within` whose
// subtree holds no entry with MinDist <= `distk`; a perfect bound would
// skip them.
struct FinalDistKNodes {
  uint64_t within = 0;
  uint64_t sphere_within = 0;
  uint64_t slack = 0;
};

FinalDistKNodes ClassifyNodes(const SsTree& tree, const Hypersphere& sq,
                              double distk) {
  FinalDistKNodes out;
  // Walks the whole subtree under `node`, whose sphere's and box's MinDist
  // are `sphere_bound` and `box_bound`; `reached` says the parent was
  // reached through bounds <= distk. Returns whether the subtree holds an
  // entry with MinDist <= distk.
  auto walk = [&](auto& self, const SsTreeNode* node, double sphere_bound,
                  double box_bound, bool reached, bool sphere_reached) -> bool {
    reached = reached && std::max(sphere_bound, box_bound) <= distk;
    sphere_reached = sphere_reached && sphere_bound <= distk;
    bool holds = false;
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) {
        holds |= MinDist(tree.store().view(e.slot), sq.view()) <= distk;
      }
    } else {
      std::vector<double> spheres, boxes;
      test::SsChildBounds(*node, sq, &spheres, &boxes);
      for (size_t i = 0; i < spheres.size(); ++i) {
        holds |= self(self, node->children()[i].get(), spheres[i], boxes[i],
                      reached, sphere_reached);
      }
    }
    out.within += reached ? 1 : 0;
    out.sphere_within += sphere_reached ? 1 : 0;
    out.slack += reached && !holds ? 1 : 0;
    return holds;
  };
  const auto [root_sphere, root_box] = test::SsRootBounds(tree, sq);
  walk(walk, tree.root(), root_sphere, root_box, /*reached=*/true,
       /*sphere_reached=*/true);
  return out;
}

// HS visits exactly the nodes that any exact traversal knowing only the
// node bounds must visit (FinalDistKNodes::within), so its node visits fall
// only when the tree has fewer such nodes, not through the visit order. On
// 50 queries over knn_paper-shaped data (k = 10) the test checks the visits
// per query, checks that HS visits no more nodes than the spheres alone
// would reach, and pins the summed node visits, entries accessed and
// slack. The visits that are not slack (977) depend only on the tree's
// shape, so a change to the node bounds alone leaves them as they are:
// with spheres alone the same tree pinned 3,791 visits, 42,420 entries and
// a slack of 2,814.
TEST(IndexKnnTest, BestFirstVisitsExactlyTheNodesWithinFinalDistK) {
  const auto data = KnnPaperShapedData();
  const auto queries = MakeKnnQueries(data, 50, 2110);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 10;
  options.strategy = SearchStrategy::kBestFirst;
  const KnnSearcher searcher(&exact, options);

  KnnStats sum;
  uint64_t slack = 0;
  for (const auto& sq : queries) {
    const KnnResult result = searcher.Search(tree, sq);
    ASSERT_GE(result.answers.size(), options.k);
    const FinalDistKNodes nodes = ClassifyNodes(
        tree, sq, MaxDist(result.answers[options.k - 1].sphere, sq));
    EXPECT_EQ(result.stats.nodes_visited, nodes.within);
    EXPECT_LE(result.stats.nodes_visited, nodes.sphere_within);
    slack += nodes.slack;
    sum += result.stats;
  }
  EXPECT_EQ(sum.nodes_visited, 1751u);
  EXPECT_EQ(sum.entries_accessed, 25219u);
  EXPECT_EQ(slack, 774u);
}

// DF visits every node HS does (FinalDistKNodes::within): its DistK only
// shrinks towards the final one, so no node reached through bounds <= the
// final DistK is ever pruned. The test checks per query that DF visits at
// least that many nodes; what it visits beyond them is its order excess
// (ROADMAP item 6): nodes whose bound exceeds the final DistK, descended
// before DistK shrank below it. Same data and queries as the HS test
// above; the slack is the same 774 nodes, since both strategies return
// the same answers.
TEST(IndexKnnTest, DepthFirstVisitsEveryNodeWithinFinalDistK) {
  const auto data = KnnPaperShapedData();
  const auto queries = MakeKnnQueries(data, 50, 2110);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 10;
  options.strategy = SearchStrategy::kDepthFirst;
  const KnnSearcher searcher(&exact, options);

  KnnStats sum;
  uint64_t slack = 0;
  uint64_t order_excess = 0;
  for (const auto& sq : queries) {
    const KnnResult result = searcher.Search(tree, sq);
    ASSERT_GE(result.answers.size(), options.k);
    const FinalDistKNodes nodes = ClassifyNodes(
        tree, sq, MaxDist(result.answers[options.k - 1].sphere, sq));
    ASSERT_GE(result.stats.nodes_visited, nodes.within);
    order_excess += result.stats.nodes_visited - nodes.within;
    slack += nodes.slack;
    sum += result.stats;
  }
  EXPECT_EQ(sum.nodes_visited, 1856u);
  EXPECT_EQ(sum.entries_accessed, 27201u);
  EXPECT_EQ(order_excess, 105u);
  EXPECT_EQ(slack, 774u);
}

// Pins the answers of every criterion, and the whole output of the eager
// ablation mode, on the SS-tree: a change to the best-known list's
// schedule must leave all of them alone. kDeferred: one answer digest per
// criterion over DF and HS, k in {1, 10}, 20 queries. kEager (Hyperbola):
// per strategy and k, an answer digest and all nine summed KnnStats
// fields. The MBR digest and the kEager pins also follow the order in
// which entries reach the list, so a change to the node bounds moves them
// too; the exact criteria's digests must not move.
TEST(IndexKnnTest, EveryCriterionAndEagerModeArePinned) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = 2107;
  const auto data = GenerateSynthetic(spec);
  const auto queries = MakeKnnQueries(data, 20, 2108);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  constexpr SearchStrategy kDf = SearchStrategy::kDepthFirst;
  constexpr SearchStrategy kHs = SearchStrategy::kBestFirst;

  struct CriterionPin {
    CriterionKind kind;
    uint64_t digest;
  };
  const CriterionPin criterion_pins[] = {
      {CriterionKind::kMinMax, 0x994c5ad3cc9e77a5ULL},
      {CriterionKind::kMbr, 0x928f267919a39df8ULL},
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
      {kDf, 1, 0x0f641706d6053360ULL,
       {811, 1749, 13031, 5290, 558, 10824, 626, 0, 0}},
      {kDf, 10, 0x1d8facd0a296c044ULL,
       {1710, 1950, 29261, 36195, 2446, 21758, 1411, 0, 0}},
      {kHs, 1, 0xcfcf8abc8a2a0e4dULL,
       {671, 1889, 10337, 4380, 229, 8657, 424, 0, 0}},
      {kHs, 10, 0xcdcb1191d87f1b98ULL,
       {1627, 2033, 27666, 26422, 1843, 21278, 624, 0, 0}},
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

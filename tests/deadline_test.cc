// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Query deadlines with graceful degradation (common/deadline.h). The
// contract under test, for every driver: an unbounded deadline changes
// nothing; an expired one yields a result flagged kBestEffort whose
// answers are a subset of the exact answer set — certified membership,
// never a guess (docs/robustness.md §7).

#include "common/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/m_tree.h"
#include "index/rstar_tree.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "query/index_knn.h"
#include "query/knn.h"
#include "query/range.h"
#include "query/rknn.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> TestData(uint64_t seed, size_t n = 1500) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

std::set<uint64_t> Ids(const std::vector<DataEntry>& entries) {
  std::set<uint64_t> ids;
  for (const auto& e : entries) ids.insert(e.id);
  return ids;
}

bool IsSubset(const std::set<uint64_t>& sub, const std::set<uint64_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

TEST(DeadlineTest, UnboundedNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.unbounded());
  EXPECT_FALSE(d.Expired(0));
  EXPECT_FALSE(d.Expired(1u << 30));
}

TEST(DeadlineTest, NodeBudgetTripsAtTheBudget) {
  const Deadline d = Deadline::WithNodeBudget(5);
  EXPECT_FALSE(d.unbounded());
  EXPECT_FALSE(d.Expired(4));
  EXPECT_TRUE(d.Expired(5));
  EXPECT_TRUE(d.Expired(6));
}

TEST(DeadlineTest, WallClockExpires) {
  const Deadline d = Deadline::AfterDuration(std::chrono::nanoseconds(0));
  EXPECT_TRUE(d.Expired(0));
  const Deadline far = Deadline::AfterDuration(std::chrono::hours(1));
  EXPECT_FALSE(far.Expired(0));
}

TEST(TraversalGuardTest, StickyExpiryAndPendingBound) {
  const Deadline d = Deadline::WithNodeBudget(2);
  TraversalGuard guard(d);
  EXPECT_FALSE(guard.ShouldStop(0));
  EXPECT_FALSE(guard.ShouldStop(1));
  EXPECT_TRUE(guard.ShouldStop(2));
  EXPECT_TRUE(guard.ShouldStop(0));  // sticky: stays expired
  EXPECT_TRUE(guard.expired());
  guard.NoteSkipped(7.0);
  guard.NoteSkipped(3.0);
  guard.NoteSkipped(9.0);
  EXPECT_EQ(guard.pending_bound(), 3.0);
}

TEST(TraversalGuardTest, GuardBuiltFromATemporaryDeadlineDoesNotDangle) {
  // Regression: the guard once held `const Deadline&`, so binding a
  // temporary (or moving the guard out of the frame that built it, as the
  // batch engine's pool tasks do) dangled. It now owns the Deadline by
  // value.
  auto make_guard = [] {
    return TraversalGuard(Deadline::WithNodeBudget(2));
  };
  TraversalGuard guard = make_guard();
  EXPECT_FALSE(guard.ShouldStop(0));
  EXPECT_FALSE(guard.ShouldStop(1));
  EXPECT_TRUE(guard.ShouldStop(2));
}

TEST(TraversalGuardTest, BudgetOnlyDeadlineNeverReadsTheClock) {
  const Deadline d = Deadline::WithNodeBudget(10'000);
  TraversalGuard guard(d);
  const uint64_t before = Deadline::WallClockReads();
  for (uint64_t i = 0; i < 5'000; ++i) {
    ASSERT_FALSE(guard.ShouldStop(i));
  }
  EXPECT_TRUE(guard.ShouldStop(10'000));
  EXPECT_EQ(Deadline::WallClockReads(), before)
      << "a budget-only deadline must stay clock-free";
}

TEST(TraversalGuardTest, UnboundedDeadlineNeverReadsTheClock) {
  TraversalGuard guard{Deadline::Unbounded()};
  const uint64_t before = Deadline::WallClockReads();
  for (uint64_t i = 0; i < 1'000; ++i) {
    ASSERT_FALSE(guard.ShouldStop(i));
  }
  EXPECT_EQ(Deadline::WallClockReads(), before);
}

TEST(TraversalGuardTest, WallClockPollingIsRateLimited) {
  const Deadline far = Deadline::AfterDuration(std::chrono::hours(1));
  const uint64_t before = Deadline::WallClockReads();
  TraversalGuard guard(far);
  constexpr uint64_t kPolls = 1000;
  for (uint64_t i = 0; i < kPolls; ++i) {
    ASSERT_FALSE(guard.ShouldStop(i));
  }
  const uint64_t reads = Deadline::WallClockReads() - before;
  // One read per stride, starting at the very first poll.
  constexpr uint64_t kStride = TraversalGuard::kWallPollStride;
  EXPECT_EQ(reads, (kPolls + kStride - 1) / kStride);
}

TEST(TraversalGuardTest, FirstPollChecksTheClockImmediately) {
  // An already-expired wall deadline must stop the traversal before any
  // node expands — rate limiting must not defer the first check.
  TraversalGuard guard(
      Deadline::AfterDuration(std::chrono::nanoseconds(0)));
  EXPECT_TRUE(guard.ShouldStop(0));
  EXPECT_TRUE(guard.expired());
}

class KnnDeadlineTest
    : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(KnnDeadlineTest, SsTreeBudgetYieldsFlaggedSubset) {
  const auto data = TestData(3100);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.strategy = GetParam();
  KnnSearcher unbounded_searcher(&exact, options);

  for (const auto& sq : MakeKnnQueries(data, 6, 3101)) {
    const KnnResult full = unbounded_searcher.Search(tree, sq);
    ASSERT_EQ(full.completeness, Completeness::kExact);
    const auto truth = Ids(full.answers);

    for (uint64_t budget : {uint64_t{1}, uint64_t{3}, uint64_t{8},
                            full.stats.nodes_visited / 2,
                            full.stats.nodes_visited}) {
      KnnOptions bounded = options;
      bounded.deadline = Deadline::WithNodeBudget(budget);
      KnnSearcher searcher(&exact, bounded);
      const KnnResult result = searcher.Search(tree, sq);
      EXPECT_LE(result.stats.nodes_visited, budget);
      if (result.completeness == Completeness::kExact) {
        EXPECT_EQ(Ids(result.answers), truth);
        EXPECT_EQ(result.stats.nodes_deadline_skipped, 0u);
      } else {
        EXPECT_TRUE(IsSubset(Ids(result.answers), truth))
            << "best-effort answers must be certified members of the exact"
               " answer (budget "
            << budget << ")";
        EXPECT_GT(result.stats.nodes_deadline_skipped, 0u);
      }
    }
    // A budget matching the full traversal must stay exact.
    KnnOptions ample = options;
    ample.deadline = Deadline::WithNodeBudget(full.stats.nodes_visited + 1);
    const KnnResult whole = KnnSearcher(&exact, ample).Search(tree, sq);
    EXPECT_EQ(whole.completeness, Completeness::kExact);
    EXPECT_EQ(Ids(whole.answers), truth);
  }
}

TEST_P(KnnDeadlineTest, AlternativeIndexesYieldFlaggedSubsets) {
  const auto data = TestData(3200, 1200);
  RStarTree rstar(4);
  ASSERT_TRUE(rstar.BulkLoad(data).ok());
  VpTree vp;
  ASSERT_TRUE(vp.Build(data).ok());
  MTree mtree(4);
  ASSERT_TRUE(mtree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.strategy = GetParam();

  for (const auto& sq : MakeKnnQueries(data, 4, 3201)) {
    const auto check = [&](const KnnResult& full, const KnnResult& bounded,
                           const char* index) {
      ASSERT_EQ(full.completeness, Completeness::kExact) << index;
      if (bounded.completeness == Completeness::kExact) {
        EXPECT_EQ(Ids(bounded.answers), Ids(full.answers)) << index;
      } else {
        EXPECT_TRUE(IsSubset(Ids(bounded.answers), Ids(full.answers)))
            << index;
        EXPECT_GT(bounded.stats.nodes_deadline_skipped, 0u) << index;
      }
    };
    KnnOptions bounded = options;
    bounded.deadline = Deadline::WithNodeBudget(4);
    check(RStarKnnSearch(rstar, sq, exact, options),
          RStarKnnSearch(rstar, sq, exact, bounded), "R*-tree");
    check(VpTreeKnnSearch(vp, sq, exact, options),
          VpTreeKnnSearch(vp, sq, exact, bounded), "VP-tree");
    check(MTreeKnnSearch(mtree, sq, exact, options),
          MTreeKnnSearch(mtree, sq, exact, bounded), "M-tree");
  }
}

TEST_P(KnnDeadlineTest, ZeroWallBudgetStillFlagsAndStaysSafe) {
  const auto data = TestData(3300, 400);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion exact;
  KnnOptions options;
  options.strategy = GetParam();
  options.deadline = Deadline::AfterDuration(std::chrono::nanoseconds(0));
  const Hypersphere sq = MakeKnnQueries(data, 1, 3301).front();
  const KnnResult result = KnnSearcher(&exact, options).Search(tree, sq);
  EXPECT_EQ(result.completeness, Completeness::kBestEffort);
  EXPECT_EQ(result.stats.nodes_visited, 0u);
  EXPECT_TRUE(result.answers.empty());
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, KnnDeadlineTest,
                         ::testing::Values(SearchStrategy::kDepthFirst,
                                           SearchStrategy::kBestFirst));

TEST(RangeDeadlineTest, BudgetYieldsFlaggedSubsets) {
  const auto data = TestData(3400, 1200);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const Hypersphere sq = MakeKnnQueries(data, 1, 3401).front();
  const double range = 40.0;

  const RangeResult full = RangeSearch(tree, sq, range);
  ASSERT_EQ(full.completeness, Completeness::kExact);

  for (uint64_t budget : {uint64_t{1}, uint64_t{4}, uint64_t{16}}) {
    const RangeResult part =
        RangeSearch(tree, sq, range, Deadline::WithNodeBudget(budget));
    EXPECT_LE(part.stats.nodes_visited, budget);
    if (part.completeness == Completeness::kExact) {
      EXPECT_EQ(Ids(part.possible), Ids(full.possible));
    } else {
      EXPECT_TRUE(IsSubset(Ids(part.certain), Ids(full.certain)));
      EXPECT_TRUE(IsSubset(Ids(part.possible), Ids(full.possible)));
      EXPECT_GT(part.stats.nodes_deadline_skipped, 0u);
    }
  }
  const RangeResult whole = RangeSearch(
      tree, sq, range, Deadline::WithNodeBudget(full.stats.nodes_visited + 1));
  EXPECT_EQ(whole.completeness, Completeness::kExact);
  EXPECT_EQ(Ids(whole.possible), Ids(full.possible));
}

TEST(RknnDeadlineTest, FilterYieldsFlaggedSubsets) {
  const auto data = TestData(3500, 300);
  const Hypersphere sq = MakeKnnQueries(data, 1, 3501).front();
  HyperbolaCriterion exact;
  const size_t k = 4;

  const RknnResult full = RknnFilter(data, sq, k, exact);
  ASSERT_EQ(full.completeness, Completeness::kExact);
  const std::set<uint64_t> truth(full.answers.begin(), full.answers.end());

  // Candidate-budget cut: processed candidates are decided exactly.
  const RknnResult part =
      RknnFilter(data, sq, k, exact, Deadline::WithNodeBudget(40));
  EXPECT_EQ(part.completeness, Completeness::kBestEffort);
  EXPECT_GT(part.stats.candidates_deadline_skipped, 0u);
  const std::set<uint64_t> part_ids(part.answers.begin(), part.answers.end());
  EXPECT_TRUE(IsSubset(part_ids, truth));
}

}  // namespace
}  // namespace hyperdom

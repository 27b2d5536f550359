// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/rknn.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "test_util.h"

namespace hyperdom {
namespace {

// Reference implementation without the MaxDist early-exit ordering.
RknnResult RknnBruteForce(const std::vector<Hypersphere>& data,
                          const Hypersphere& sq, size_t k,
                          const DominanceCriterion& criterion) {
  RknnResult result;
  for (size_t cand = 0; cand < data.size(); ++cand) {
    size_t dominators = 0;
    for (size_t other = 0; other < data.size(); ++other) {
      if (other == cand) continue;
      if (criterion.Dominates(data[other], sq, data[cand])) ++dominators;
    }
    if (dominators < k) result.answers.push_back(cand);
  }
  return result;
}

TEST(RknnTest, HandComputableScene) {
  // Query at the far right; the middle object has its left neighbor
  // certainly closer than the query, so it drops out of RkNN(k=1).
  const std::vector<Hypersphere> data = {
      Hypersphere({0.0, 0.0}, 0.1),   // 0: leftmost
      Hypersphere({2.0, 0.0}, 0.1),   // 1: middle, object 0 is closer to it
      Hypersphere({50.0, 0.0}, 0.1),  // 2: near the query
  };
  const Hypersphere sq({40.0, 0.0}, 0.1);
  HyperbolaCriterion c;
  const RknnResult result = RknnFilter(data, sq, 1, c);
  // Object 1: object 0 at distance 2 dominates the query at distance 38 ->
  // pruned. Objects 0 and 2 keep the query as a possible 1NN... object 0:
  // object 1 dominates the query w.r.t. object 0 as well (2 vs 40) ->
  // pruned too. Object 2 survives (query at 10, others at ~48).
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0], 2u);
}

class RknnAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RknnAgreementTest, MatchesBruteForce) {
  const size_t k = GetParam();
  SyntheticSpec spec;
  spec.n = 150;
  spec.dim = 3;
  spec.radius_mean = 5.0;
  spec.seed = 880 + k;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion c;
  for (int qi = 0; qi < 5; ++qi) {
    const Hypersphere& sq = data[qi * 17];
    const RknnResult fast = RknnFilter(data, sq, k, c);
    const RknnResult slow = RknnBruteForce(data, sq, k, c);
    EXPECT_EQ(fast.answers, slow.answers) << "k=" << k << " qi=" << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, RknnAgreementTest, ::testing::Values(1, 3, 10));

TEST(RknnTest, LargerKKeepsMoreCandidates) {
  SyntheticSpec spec;
  spec.n = 200;
  spec.dim = 3;
  spec.seed = 890;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion c;
  const Hypersphere& sq = data[0];
  size_t prev = 0;
  for (size_t k : {1u, 2u, 5u, 20u}) {
    const size_t count = RknnFilter(data, sq, k, c).answers.size();
    EXPECT_GE(count, prev);
    prev = count;
  }
}

TEST(RknnTest, CorrectCriterionGivesSupersetWithWeakerPruning) {
  SyntheticSpec spec;
  spec.n = 200;
  spec.dim = 3;
  spec.seed = 891;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion exact;
  MinMaxCriterion weak;
  const Hypersphere& sq = data[3];
  const auto exact_answers = RknnFilter(data, sq, 1, exact).answers;
  const auto weak_answers = RknnFilter(data, sq, 1, weak).answers;
  // A weaker (still correct) criterion prunes less: superset.
  for (uint64_t id : exact_answers) {
    EXPECT_NE(std::find(weak_answers.begin(), weak_answers.end(), id),
              weak_answers.end());
  }
  EXPECT_GE(weak_answers.size(), exact_answers.size());
}

TEST(RknnTest, AllCandidatesWhenQueryIsFar) {
  // A query far from a tight cluster: every object's nearest other object
  // dominates the query, so nothing keeps it as a possible 1NN.
  std::vector<Hypersphere> data;
  Rng rng(892);
  for (int i = 0; i < 50; ++i) {
    data.emplace_back(Point{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)},
                      0.1);
  }
  const Hypersphere far_query({1000.0, 1000.0}, 1.0);
  HyperbolaCriterion c;
  EXPECT_TRUE(RknnFilter(data, far_query, 1, c).answers.empty());
}

TEST(RknnTest, StatsCountPrunes) {
  SyntheticSpec spec;
  spec.n = 100;
  spec.dim = 2;
  spec.seed = 893;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion c;
  const RknnResult result = RknnFilter(data, data[0], 1, c);
  EXPECT_EQ(result.stats.candidates_pruned + result.answers.size(),
            data.size());
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "dominance/mbr_criterion.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hyperdom {
namespace {

TEST(MbrCriterionTest, Metadata) {
  MbrCriterion c;
  EXPECT_EQ(c.name(), "MBR");
  EXPECT_TRUE(c.is_correct());
  EXPECT_FALSE(c.is_sound());
}

TEST(MbrCriterionTest, ObviousDominance) {
  MbrCriterion c;
  EXPECT_TRUE(c.Dominates(Hypersphere({2.0, 0.0}, 0.5),
                          Hypersphere({100.0, 0.0}, 0.5),
                          Hypersphere({0.0, 0.0}, 0.5)));
}

TEST(MbrCriterionTest, ObviousNonDominance) {
  MbrCriterion c;
  EXPECT_FALSE(c.Dominates(Hypersphere({100.0, 0.0}, 0.5),
                           Hypersphere({2.0, 0.0}, 0.5),
                           Hypersphere({0.0, 0.0}, 0.5)));
}

// Paper Lemma 5's construction: three equal-radius spheres along the
// diagonal; dominance holds, but the bounding boxes of Sa and Sb intersect
// at the corners, so the box criterion must say no.
TEST(MbrCriterionTest, Lemma5FalseNegativeWitness) {
  const double r = 1.0;
  const double delta = 0.05;
  const double diag = 1.0 / std::sqrt(2.0);
  const Hypersphere sq({0.0, 0.0}, r);
  const Hypersphere sa({4.0 * r * diag, 4.0 * r * diag}, r);
  const Hypersphere sb({(6.0 * r + delta) * diag, (6.0 * r + delta) * diag},
                       r);
  const test::Scene scene{sa, sb, sq};
  ASSERT_TRUE(test::OracleDominates(scene));
  // The boxes of Sa and Sb overlap: centers are sqrt(2)*(1 + delta/2) ~ 1.45
  // apart per coordinate, box half-widths sum to 2 per coordinate.
  MbrCriterion c;
  EXPECT_FALSE(c.Dominates(sa, sb, sq));
}

// Correctness sweep: a positive answer must always match the oracle.
class MbrCorrectnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MbrCorrectnessTest, NeverFalsePositive) {
  const size_t dim = GetParam();
  Rng rng(910 + dim);
  MbrCriterion c;
  int positives = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, dim, 8.0);
    if (!c.Dominates(s.sa, s.sb, s.sq)) continue;
    ++positives;
    if (test::IsBorderline(s)) continue;
    EXPECT_TRUE(test::OracleDominates(s)) << test::SceneToString(s);
  }
  EXPECT_GT(positives, 20) << "sweep produced too few positives to matter";
}

INSTANTIATE_TEST_SUITE_P(Dims, MbrCorrectnessTest,
                         ::testing::Values(2, 3, 4, 8));

// Non-soundness grows with dimensionality: the box inflates the sphere by
// sqrt(d), so in higher d the criterion misses more true dominances.
TEST(MbrCriterionTest, FalseNegativesExistInEveryDimension) {
  for (size_t dim : {2u, 4u, 8u}) {
    Rng rng(920 + dim);
    MbrCriterion c;
    int false_negatives = 0;
    for (int iter = 0; iter < 4000 && false_negatives == 0; ++iter) {
      const test::Scene s = test::RandomScene(&rng, dim, 20.0);
      if (test::IsBorderline(s)) continue;
      if (test::OracleDominates(s) && !c.Dominates(s.sa, s.sb, s.sq)) {
        ++false_negatives;
      }
    }
    EXPECT_GT(false_negatives, 0) << "dim " << dim;
  }
}

TEST(MbrCriterionTest, OverlapImpliesFalse) {
  Rng rng(930);
  MbrCriterion c;
  for (int iter = 0; iter < 500; ++iter) {
    const Hypersphere sa = test::RandomSphere(&rng, 3, 15.0);
    const Hypersphere sb(AddScaled(sa.center(), 1.0, {1.0, 0.0, 0.0}),
                         sa.radius() + 2.0);
    const Hypersphere sq = test::RandomSphere(&rng, 3, 10.0);
    ASSERT_TRUE(Overlaps(sa, sb));
    EXPECT_FALSE(c.Dominates(sa, sb, sq));
  }
}

}  // namespace
}  // namespace hyperdom

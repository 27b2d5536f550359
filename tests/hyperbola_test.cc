// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "dominance/hyperbola.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/focal_frame.h"
#include "test_util.h"

namespace hyperdom {
namespace {

TEST(HyperbolaTest, Metadata) {
  HyperbolaCriterion c;
  EXPECT_EQ(c.name(), "Hyperbola");
  EXPECT_TRUE(c.is_correct());
  EXPECT_TRUE(c.is_sound());
}

// Paper Figure 1(a): Sa between Sq and Sb -> dominance.
TEST(HyperbolaTest, FigureOneA) {
  HyperbolaCriterion c;
  EXPECT_TRUE(c.Dominates(Hypersphere({4.0, 0.0}, 1.0),
                          Hypersphere({12.0, 0.0}, 1.0),
                          Hypersphere({0.0, 0.0}, 1.5)));
}

// Paper Figure 1(b): Sb swings near the query -> no dominance.
TEST(HyperbolaTest, FigureOneB) {
  HyperbolaCriterion c;
  EXPECT_FALSE(c.Dominates(Hypersphere({4.0, 0.0}, 1.0),
                           Hypersphere({3.0, 4.0}, 1.0),
                           Hypersphere({0.0, 0.0}, 1.5)));
}

// Paper Lemma 1: overlap kills dominance, including tangency and nesting.
TEST(HyperbolaTest, OverlappingCaseIsFalse) {
  HyperbolaCriterion c;
  const Hypersphere sq({0.0, 0.0}, 1.0);
  EXPECT_FALSE(c.Dominates(Hypersphere({5.0, 0.0}, 2.0),
                           Hypersphere({8.0, 0.0}, 1.0), sq));  // tangent
  EXPECT_FALSE(c.Dominates(Hypersphere({5.0, 0.0}, 3.0),
                           Hypersphere({6.0, 0.0}, 1.0), sq));  // nested
  EXPECT_FALSE(c.Dominates(Hypersphere({5.0, 0.0}, 2.0),
                           Hypersphere({5.0, 0.0}, 2.0), sq));  // identical
}

TEST(HyperbolaTest, PointQueryReducesToCenterCheck) {
  HyperbolaCriterion c;
  const Hypersphere sa({2.0, 0.0}, 0.5);
  const Hypersphere sb({10.0, 0.0}, 0.5);
  EXPECT_TRUE(c.Dominates(sa, sb, Hypersphere({0.0, 0.0}, 0.0)));
  // Query point equidistant-ish: margin db - da = 2 > rab = 1 -> true;
  // move the query so the margin collapses below rab -> false.
  EXPECT_FALSE(c.Dominates(sa, sb, Hypersphere({5.8, 0.0}, 0.0)));
}

TEST(HyperbolaTest, TwoPointsBisectorCase) {
  HyperbolaCriterion c;
  const Hypersphere pa = Hypersphere::FromPoint({0.0, 2.0});
  const Hypersphere pb = Hypersphere::FromPoint({0.0, -2.0});
  // Query ball strictly above the bisector: dominance (Lemma 3's example).
  EXPECT_TRUE(c.Dominates(pa, pb, Hypersphere({0.0, 10.0}, 6.0)));
  EXPECT_TRUE(c.Dominates(pa, pb, Hypersphere({40.0, 8.0}, 7.9)));
  // Ball touching the bisector: tangency means a tie point exists.
  EXPECT_FALSE(c.Dominates(pa, pb, Hypersphere({0.0, 10.0}, 10.0)));
  // Ball crossing the bisector: definitely not.
  EXPECT_FALSE(c.Dominates(pa, pb, Hypersphere({0.0, 10.0}, 12.0)));
}

TEST(HyperbolaTest, OneDimensionalExact) {
  HyperbolaCriterion c;
  // Segment query fully on Sa's side.
  EXPECT_TRUE(c.Dominates(Hypersphere({2.0}, 0.5), Hypersphere({20.0}, 0.5),
                          Hypersphere({0.0}, 1.0)));
  // Segment reaching past the midline.
  EXPECT_FALSE(c.Dominates(Hypersphere({2.0}, 0.5), Hypersphere({20.0}, 0.5),
                           Hypersphere({0.0}, 11.0)));
  // Segment containing the b-focus.
  EXPECT_FALSE(c.Dominates(Hypersphere({2.0}, 0.1), Hypersphere({6.0}, 0.1),
                           Hypersphere({5.0}, 2.0)));
}

// ---------------------------------------------------------------------------
// The core equivalence: Hyperbola == numeric oracle, across dimensions and
// radius regimes, skipping only scenes within 1e-6 of the decision boundary.
// ---------------------------------------------------------------------------
class HyperbolaVsOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(HyperbolaVsOracleTest, MatchesOracle) {
  const auto [dim, mu] = GetParam();
  Rng rng(4000 + dim * 131 + static_cast<uint64_t>(mu));
  HyperbolaCriterion c;
  int checked = 0, positives = 0;
  for (int iter = 0; iter < 8000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, dim, mu);
    if (test::IsBorderline(s)) continue;
    ++checked;
    const bool expected = test::OracleDominates(s);
    EXPECT_EQ(c.Dominates(s.sa, s.sb, s.sq), expected)
        << test::SceneToString(s);
    if (expected) ++positives;
  }
  EXPECT_GT(checked, 7000);
  // At mu >= 50 the Gaussian(100, 25) scene is so crowded with fat spheres
  // that random triples essentially never dominate; only demand positives
  // where the regime admits them.
  if (mu <= 10.0) {
    EXPECT_GT(positives, 0) << "sweep never produced a dominance";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HyperbolaVsOracleTest,
    ::testing::Combine(::testing::Values<size_t>(2, 3, 4, 6, 10, 17),
                       ::testing::Values(5.0, 10.0, 50.0, 100.0)));

// Parametric inner method must agree with the quartic everywhere.
class HyperbolaInnerMethodTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HyperbolaInnerMethodTest, QuarticAgreesWithParametric) {
  const size_t dim = GetParam();
  Rng rng(4100 + dim);
  HyperbolaCriterion quartic(HyperbolaInnerMethod::kQuartic);
  HyperbolaCriterion parametric(HyperbolaInnerMethod::kParametric);
  for (int iter = 0; iter < 3000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, dim, 10.0);
    if (test::IsBorderline(s)) continue;
    EXPECT_EQ(quartic.Dominates(s.sa, s.sb, s.sq),
              parametric.Dominates(s.sa, s.sb, s.sq))
        << test::SceneToString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HyperbolaInnerMethodTest,
                         ::testing::Values(2, 4, 8));

// The exposed min-distance kernels agree on random frames.
TEST(HyperbolaMinDistTest, QuarticMatchesParametricKernel) {
  Rng rng(4200);
  for (int iter = 0; iter < 5000; ++iter) {
    const double alpha = rng.Uniform(0.5, 50.0);
    const double rab = rng.Uniform(0.01, 1.99) * alpha;
    const double y1 = rng.Uniform(-3.0 * alpha, 3.0 * alpha);
    const double y2 = rng.Uniform(0.0, 3.0 * alpha);
    const double dq = HyperbolaMinDistQuartic(alpha, rab, y1, y2);
    const double dp = HyperbolaMinDistParametric(alpha, rab, y1, y2);
    // The quartic finds the exact critical points; the parametric scan is
    // the reference. Tolerate its grid resolution.
    EXPECT_NEAR(dq, dp, 1e-5 * (1.0 + alpha))
        << "alpha=" << alpha << " rab=" << rab << " y1=" << y1
        << " y2=" << y2;
  }
}

TEST(HyperbolaMinDistTest, OnAxisQueries) {
  // Singular-branch coverage: the query on the focal axis (y2 == 0).
  for (double y1 : {-40.0, -6.0, -1.2, 0.0, 1.2, 6.0, 40.0}) {
    const double dq = HyperbolaMinDistQuartic(5.0, 2.0, y1, 0.0);
    const double dp = HyperbolaMinDistParametric(5.0, 2.0, y1, 0.0);
    EXPECT_NEAR(dq, dp, 1e-6) << "y1=" << y1;
  }
}

TEST(HyperbolaMinDistTest, OnBisectorQueries) {
  // Singular-branch coverage: the query on the mid-plane (y1 == 0).
  for (double y2 : {0.5, 2.0, 10.0, 80.0}) {
    const double dq = HyperbolaMinDistQuartic(5.0, 2.0, 0.0, y2);
    const double dp = HyperbolaMinDistParametric(5.0, 2.0, 0.0, y2);
    EXPECT_NEAR(dq, dp, 1e-6 * (1.0 + y2)) << "y2=" << y2;
  }
}

TEST(HyperbolaMinDistTest, VertexDistanceExactOnAxisNearCa) {
  // cq between the near vertex and the a-focus: nearest point is the vertex
  // x1 = -rab/2 when cq is mildly off it.
  const double alpha = 10.0;
  const double rab = 4.0;  // vertex at -2
  const double dq = HyperbolaMinDistQuartic(alpha, rab, -6.0, 0.0);
  EXPECT_NEAR(dq, 4.0, 1e-9);  // |-6 - (-2)|
}

TEST(HyperbolaMinDistTest, PointOnTheCurveHasZeroDistance) {
  // Construct a point exactly on the near branch and expect ~0.
  const double alpha = 8.0;
  const double rab = 6.0;
  const double a = rab / 2.0;
  const double b = std::sqrt(alpha * alpha - a * a);
  for (double t : {0.0, 0.3, 1.0, 2.5}) {
    const double x1 = -a * std::cosh(t);
    const double xp = b * std::sinh(t);
    const double d = HyperbolaMinDistQuartic(alpha, rab, x1, xp);
    EXPECT_NEAR(d, 0.0, 1e-6 * (1.0 + std::fabs(x1) + xp)) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Geometric invariances: dominance decisions survive translation, rotation
// (coordinate permutation + sign flips) and uniform scaling.
// ---------------------------------------------------------------------------
TEST(HyperbolaInvarianceTest, Translation) {
  Rng rng(4300);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 2000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 4, 10.0);
    if (test::IsBorderline(s)) continue;
    Point shift(4);
    for (auto& v : shift) v = rng.Uniform(-500.0, 500.0);
    const bool base = c.Dominates(s.sa, s.sb, s.sq);
    const Hypersphere sa2(AddScaled(s.sa.center(), 1.0, shift),
                          s.sa.radius());
    const Hypersphere sb2(AddScaled(s.sb.center(), 1.0, shift),
                          s.sb.radius());
    const Hypersphere sq2(AddScaled(s.sq.center(), 1.0, shift),
                          s.sq.radius());
    EXPECT_EQ(c.Dominates(sa2, sb2, sq2), base) << test::SceneToString(s);
  }
}

TEST(HyperbolaInvarianceTest, AxisPermutationAndFlip) {
  Rng rng(4301);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 2000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 4, 10.0);
    if (test::IsBorderline(s)) continue;
    const bool base = c.Dominates(s.sa, s.sb, s.sq);
    auto transform = [](const Hypersphere& h) {
      const Point& p = h.center();
      return Hypersphere({-p[2], p[0], -p[3], p[1]}, h.radius());
    };
    EXPECT_EQ(c.Dominates(transform(s.sa), transform(s.sb), transform(s.sq)),
              base)
        << test::SceneToString(s);
  }
}

TEST(HyperbolaInvarianceTest, UniformScaling) {
  Rng rng(4302);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 2000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 3, 10.0);
    if (test::IsBorderline(s)) continue;
    const double k = rng.Uniform(0.01, 100.0);
    const bool base = c.Dominates(s.sa, s.sb, s.sq);
    auto scale = [&](const Hypersphere& h) {
      return Hypersphere(Scale(h.center(), k), h.radius() * k);
    };
    EXPECT_EQ(c.Dominates(scale(s.sa), scale(s.sb), scale(s.sq)), base)
        << test::SceneToString(s) << " k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Semantic properties of dominance itself, decided through Hyperbola.
// ---------------------------------------------------------------------------
TEST(HyperbolaSemanticsTest, IrreflexiveAndAsymmetric) {
  Rng rng(4400);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 2000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 3, 10.0);
    EXPECT_FALSE(c.Dominates(s.sa, s.sa, s.sq));  // irreflexive
    if (c.Dominates(s.sa, s.sb, s.sq)) {
      EXPECT_FALSE(c.Dominates(s.sb, s.sa, s.sq));  // asymmetric
    }
  }
}

TEST(HyperbolaSemanticsTest, MonotoneUnderShrinking) {
  // Shrinking any of the three spheres preserves dominance.
  Rng rng(4401);
  HyperbolaCriterion c;
  int dominated = 0;
  for (int iter = 0; iter < 6000 && dominated < 600; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 3, 12.0);
    if (!c.Dominates(s.sa, s.sb, s.sq)) continue;
    ++dominated;
    const double f = rng.NextDouble();
    EXPECT_TRUE(c.Dominates(Hypersphere(s.sa.center(), s.sa.radius() * f),
                            s.sb, s.sq));
    EXPECT_TRUE(c.Dominates(s.sa,
                            Hypersphere(s.sb.center(), s.sb.radius() * f),
                            s.sq));
    EXPECT_TRUE(c.Dominates(s.sa, s.sb,
                            Hypersphere(s.sq.center(), s.sq.radius() * f)));
  }
  EXPECT_GT(dominated, 50);
}

TEST(HyperbolaSemanticsTest, SampledWitnessesRespectDecision) {
  // When Hyperbola says true, every sampled (a, b, q) triple obeys
  // Dist(a, q) < Dist(b, q); when it says false with margin, a violating
  // triple exists (found via the oracle's minimizer side).
  Rng rng(4402);
  HyperbolaCriterion c;
  int positives = 0;
  for (int iter = 0; iter < 3000 && positives < 300; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 2, 10.0);
    if (!c.Dominates(s.sa, s.sb, s.sq)) continue;
    ++positives;
    for (int k = 0; k < 20; ++k) {
      auto sample = [&](const Hypersphere& h) {
        const double theta = rng.Uniform(0.0, 2.0 * M_PI);
        const double rad = h.radius() * std::sqrt(rng.NextDouble());
        return Point{h.center()[0] + rad * std::cos(theta),
                     h.center()[1] + rad * std::sin(theta)};
      };
      const Point a = sample(s.sa);
      const Point b = sample(s.sb);
      const Point q = sample(s.sq);
      EXPECT_LT(Dist(a, q), Dist(b, q)) << test::SceneToString(s);
    }
  }
  EXPECT_GT(positives, 30);
}

// Adversarial geometry: queries far along the asymptotes, huge spheres,
// tiny margins handled without crashes and consistently with the oracle.
TEST(HyperbolaStressTest, ExtremeAspectRatios) {
  Rng rng(4500);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 3000; ++iter) {
    // Distances across 6 orders of magnitude.
    const double scale = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    Point ca = {0.0, 0.0};
    Point cb = {scale * rng.Uniform(0.5, 2.0), scale * rng.Uniform(-1.0, 1.0)};
    Point cq = {scale * rng.Uniform(-5.0, 5.0), scale * rng.Uniform(-5.0, 5.0)};
    const test::Scene s{
        Hypersphere(ca, scale * rng.Uniform(0.0, 0.2)),
        Hypersphere(cb, scale * rng.Uniform(0.0, 0.2)),
        Hypersphere(cq, scale * rng.Uniform(0.0, 2.0))};
    if (test::IsBorderline(s, 1e-6 * scale)) continue;
    const bool expected = test::OracleDominates(s);
    EXPECT_EQ(c.Dominates(s.sa, s.sb, s.sq), expected)
        << test::SceneToString(s);
  }
}

TEST(HyperbolaStressTest, NearOverlapMargins) {
  // Sa and Sb separated by a sliver; decisions must stay oracle-consistent.
  Rng rng(4501);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 2000; ++iter) {
    const double gap = std::pow(10.0, rng.Uniform(-4.0, 0.0));
    const Hypersphere sa({0.0, 0.0}, 1.0);
    const Hypersphere sb({2.0 + gap + 1.0, 0.0}, 1.0);
    const Hypersphere sq({rng.Uniform(-6.0, 0.0), rng.Uniform(-2.0, 2.0)},
                         rng.Uniform(0.0, 1.0));
    const test::Scene s{sa, sb, sq};
    if (test::IsBorderline(s, 1e-8)) continue;
    EXPECT_EQ(c.Dominates(sa, sb, sq), test::OracleDominates(s))
        << test::SceneToString(s) << " gap=" << gap;
  }
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Regression suite for the numerically nasty corners of the Hyperbola
// kernel — each family here broke a draft implementation at least once
// during development:
//   * near-degenerate hyperbolas (ra + rb approaching Dist(ca, cb), i.e.
//     eccentricity -> 1, vanishing semi-minor axis),
//   * queries exactly on / within rounding of the focal axis, where the
//     Lagrange system's denominators vanish (the "singular branches"),
//   * queries on the bisector plane,
//   * extreme coordinate scales (the quartic coefficients grow like the
//     12th power of the scene scale).

#include <gtest/gtest.h>

#include <cmath>

#include "dominance/certified.h"
#include "dominance/hyperbola.h"
#include "geometry/focal_frame.h"
#include "test_util.h"

namespace hyperdom {
namespace {

TEST(HyperbolaDegenerateTest, NearDegenerateEccentricitySweep) {
  // rab/2alpha in {0.5, 0.9, 0.99, 0.999, 0.999999}: the semi-minor axis
  // B = sqrt(alpha^2 - (rab/2)^2) collapses; the kernel must stay within
  // reference tolerance everywhere.
  Rng rng(5000);
  for (double ecc : {0.5, 0.9, 0.99, 0.999, 0.999999}) {
    for (int iter = 0; iter < 400; ++iter) {
      const double alpha = rng.Uniform(0.5, 20.0);
      const double rab = 2.0 * alpha * ecc;
      const double y1 = rng.Uniform(-4.0 * alpha, 4.0 * alpha);
      const double y2 = rng.Uniform(0.0, 4.0 * alpha);
      const double dq = HyperbolaMinDistQuartic(alpha, rab, y1, y2);
      const double dp = HyperbolaMinDistParametric(alpha, rab, y1, y2);
      // The quartic must never report a distance BELOW the truth (that
      // breaks soundness); small overestimates versus the scan reference
      // are tolerable at extreme eccentricity.
      EXPECT_GE(dq, dp - 1e-5 * (1.0 + alpha))
          << "ecc=" << ecc << " alpha=" << alpha << " y1=" << y1
          << " y2=" << y2;
      EXPECT_LE(dq, dp + 2e-4 * (1.0 + alpha))
          << "ecc=" << ecc << " alpha=" << alpha << " y1=" << y1
          << " y2=" << y2;
    }
  }
}

TEST(HyperbolaDegenerateTest, DiagonalTouchingFamilyDecisions) {
  // The Lemma-5 style family that produced the historical false negatives:
  // three equal-radius spheres along the diagonal with the middle gap a
  // hair over tangency, query radius equal to the object radius.
  Rng rng(5001);
  HyperbolaCriterion c;
  int checked = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const double r = rng.Uniform(0.2, 8.0);
    const double delta = rng.Uniform(1e-4, 0.8);
    const double diag = 1.0 / std::sqrt(2.0);
    const test::Scene s{
        Hypersphere({4.0 * r * diag, 4.0 * r * diag}, r),
        Hypersphere({(6.0 * r + delta) * diag, (6.0 * r + delta) * diag}, r),
        Hypersphere({0.0, 0.0}, r)};
    if (test::IsBorderline(s)) continue;
    ++checked;
    EXPECT_EQ(c.Dominates(s.sa, s.sb, s.sq), test::OracleDominates(s))
        << test::SceneToString(s);
  }
  EXPECT_GT(checked, 2500);
}

TEST(HyperbolaDegenerateTest, QueriesExactlyOnTheFocalAxis) {
  // 3-d scenes with all three centers collinear: y2 == 0 after reduction.
  Rng rng(5002);
  HyperbolaCriterion c;
  int checked = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Point dir = test::RandomPoint(&rng, 3, 0.0, 1.0);
    if (Norm(dir) < 1e-9) continue;
    dir = Normalized(dir);
    const Point origin = test::RandomPoint(&rng, 3);
    auto at = [&](double t) { return AddScaled(origin, t, dir); };
    const test::Scene s{Hypersphere(at(rng.Uniform(-50, 50)),
                                    rng.Uniform(0.0, 10.0)),
                        Hypersphere(at(rng.Uniform(-50, 50)),
                                    rng.Uniform(0.0, 10.0)),
                        Hypersphere(at(rng.Uniform(-80, 80)),
                                    rng.Uniform(0.0, 20.0))};
    if (test::IsBorderline(s)) continue;
    ++checked;
    EXPECT_EQ(c.Dominates(s.sa, s.sb, s.sq), test::OracleDominates(s))
        << test::SceneToString(s);
  }
  EXPECT_GT(checked, 2000);
}

TEST(HyperbolaDegenerateTest, QueriesOnTheBisectorPlane) {
  // cq equidistant from the foci: y1 == 0 (never dominant, but the kernel
  // is exercised via the exposed functions; the criterion path must also
  // answer false without tripping on the singular branch).
  Rng rng(5003);
  HyperbolaCriterion c;
  for (int iter = 0; iter < 1000; ++iter) {
    Point ca = test::RandomPoint(&rng, 3);
    Point cb = test::RandomPoint(&rng, 3);
    if (Dist(ca, cb) < 1e-6) continue;
    Point mid = Midpoint(ca, cb);
    // Any point of the bisector plane: mid + component orthogonal to axis.
    Point axis = Normalized(Sub(cb, ca));
    Point off = test::RandomPoint(&rng, 3, 0.0, 20.0);
    off = AddScaled(off, -Dot(off, axis), axis);
    const Point cq = AddScaled(mid, 1.0, off);
    const Hypersphere sa(ca, rng.Uniform(0.0, 3.0));
    const Hypersphere sb(cb, rng.Uniform(0.0, 3.0));
    const Hypersphere sq(cq, rng.Uniform(0.0, 3.0));
    EXPECT_FALSE(c.Dominates(sa, sb, sq));
  }
}

TEST(HyperbolaDegenerateTest, ExtremeSceneScales) {
  // The same logical scene across 12 orders of magnitude of coordinates.
  HyperbolaCriterion c;
  const test::Scene base{Hypersphere({4.0, 1.0, 0.0}, 1.0),
                         Hypersphere({12.0, -2.0, 3.0}, 1.0),
                         Hypersphere({0.0, 0.0, 0.5}, 1.5)};
  const bool expected = c.Dominates(base.sa, base.sb, base.sq);
  for (double exp10 : {-6.0, -3.0, 0.0, 3.0, 6.0}) {
    const double k = std::pow(10.0, exp10);
    auto scale = [&](const Hypersphere& h) {
      return Hypersphere(Scale(h.center(), k), h.radius() * k);
    };
    EXPECT_EQ(c.Dominates(scale(base.sa), scale(base.sb), scale(base.sq)),
              expected)
        << "scale 1e" << exp10;
  }
}

TEST(HyperbolaDegenerateTest, TinyRadiiSumJustAboveZero) {
  // rab barely positive: the hyperbola is nearly the bisector hyperplane;
  // the quartic path and the rab == 0 closed form must agree in the limit.
  HyperbolaCriterion c;
  const Point ca = {0.0, 2.0};
  const Point cb = {0.0, -2.0};
  for (double tiny : {1e-12, 1e-9, 1e-6}) {
    const Hypersphere sa(ca, tiny);
    const Hypersphere sb(cb, tiny);
    // Safely inside Ra (margin far above rab).
    EXPECT_TRUE(c.Dominates(sa, sb, Hypersphere({0.0, 10.0}, 6.0)));
    // Crossing the bisector.
    EXPECT_FALSE(c.Dominates(sa, sb, Hypersphere({0.0, 10.0}, 11.0)));
  }
}

TEST(HyperbolaDegenerateTest, QueryCenterOnTheCurveItself) {
  // cq exactly on the boundary sheet: dmin == 0, so any rq > 0 fails and
  // rq == 0 fails too (the margin is not strict).
  const double alpha = 5.0;
  const double rab = 4.0;
  const double a = rab / 2.0;
  const double b = std::sqrt(alpha * alpha - a * a);
  HyperbolaCriterion c;
  for (double t : {0.0, 0.7, 1.9}) {
    // Build a 2-d scene with foci on the x-axis and cq on the near sheet.
    const Hypersphere sa(Point{-alpha, 0.0}, rab / 2.0);
    const Hypersphere sb(Point{alpha, 0.0}, rab / 2.0);
    const Point cq = {-a * std::cosh(t), b * std::sinh(t)};
    EXPECT_FALSE(c.Dominates(sa, sb, Hypersphere(cq, 0.5))) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs through the certified engine: the three-valued verdict
// must stay decisive where the geometry is clear and honest (kUncertain)
// where no finite precision can break a tie — never confidently wrong.
// ---------------------------------------------------------------------------

TEST(CertifiedDegenerateTest, CoincidentCenters) {
  const CertifiedDominance engine;
  // Same center, positive radii: Sa and Sb overlap, so dominance is
  // decisively impossible.
  const Hypersphere sa({1.0, 2.0}, 1.0);
  const Hypersphere sb({1.0, 2.0}, 0.5);
  const Hypersphere sq({5.0, 5.0}, 1.0);
  EXPECT_EQ(engine.Decide(sa, sb, sq), Verdict::kNotDominates);
  // Same center, zero radii: an exact tie no precision can resolve.
  const Hypersphere pa = Hypersphere::FromPoint({1.0, 2.0});
  EXPECT_EQ(engine.Decide(pa, pa, sq), Verdict::kUncertain);
}

TEST(CertifiedDegenerateTest, ZeroRadiusQuery) {
  const CertifiedDominance engine;
  const Hypersphere sa({0.0, 0.0}, 1.0);
  const Hypersphere sb({20.0, 0.0}, 1.0);
  EXPECT_EQ(engine.Decide(sa, sb, Hypersphere::FromPoint({-2.0, 0.0})),
            Verdict::kDominates);
  EXPECT_EQ(engine.Decide(sa, sb, Hypersphere::FromPoint({18.0, 0.0})),
            Verdict::kNotDominates);
}

TEST(CertifiedDegenerateTest, OneDimensionalScenes) {
  const CertifiedDominance engine;
  Rng rng(5004);
  const auto oracle = MakeCriterion(CriterionKind::kNumericOracle);
  int checked = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const test::Scene s = test::RandomScene(&rng, 1, 10.0);
    if (test::IsBorderline(s)) continue;
    ++checked;
    const Verdict v = engine.Decide(s.sa, s.sb, s.sq);
    if (v == Verdict::kUncertain) continue;
    EXPECT_EQ(v == Verdict::kDominates, test::OracleDominates(s))
        << test::SceneToString(s);
  }
  EXPECT_GT(checked, 1500);
  EXPECT_LT(engine.stats().UncertainRate(), 0.01);
}

TEST(CertifiedDegenerateTest, DenormalAndHugeCoordinates) {
  const CertifiedDominance engine;
  // Denormal-scale scene: all quantities around 1e-308. The engine may
  // not be able to certify (bands collapse with the scale), but it must
  // never be decisively wrong, and must not crash or emit NaN verdicts.
  const double tiny = 1e-308;
  const Hypersphere sa_tiny({0.0, 0.0}, tiny);
  const Hypersphere sb_tiny({20.0 * tiny, 0.0}, tiny);
  const Hypersphere sq_tiny({-5.0 * tiny, 0.0}, tiny);
  const Verdict v_tiny = engine.Decide(sa_tiny, sb_tiny, sq_tiny);
  EXPECT_NE(v_tiny, Verdict::kNotDominates);  // geometry clearly dominates
  // Huge-but-finite scene: around 1e150 (squares stay finite in double
  // only as long doubles; the distance accumulation must not overflow the
  // verdict into nonsense).
  const double huge = 1e150;
  const Hypersphere sa_huge({0.0, 0.0}, huge * 0.05);
  const Hypersphere sb_huge({20.0 * huge, 0.0}, huge * 0.05);
  const Hypersphere sq_huge({-5.0 * huge, 0.0}, huge * 0.05);
  EXPECT_EQ(engine.Decide(sa_huge, sb_huge, sq_huge), Verdict::kDominates);
  const Hypersphere sq_far({30.0 * huge, 0.0}, huge * 0.05);
  EXPECT_EQ(engine.Decide(sa_huge, sb_huge, sq_far), Verdict::kNotDominates);
}

}  // namespace
}  // namespace hyperdom

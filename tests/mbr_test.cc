// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "geometry/mbr.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace hyperdom {
namespace {

TEST(MbrTest, FromSphere) {
  const Mbr box = Mbr::FromSphere(Hypersphere({10.0, 20.0}, 3.0));
  EXPECT_EQ(box.lo(), (Point{7, 17}));
  EXPECT_EQ(box.hi(), (Point{13, 23}));
  EXPECT_EQ(box.dim(), 2u);
}

TEST(MbrTest, MinMaxDistComponents) {
  EXPECT_DOUBLE_EQ(MaxDistComponent(0.0, 2.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(MaxDistComponent(0.0, 2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(MaxDistComponent(0.0, 2.0, -1.0), 3.0);
  EXPECT_DOUBLE_EQ(MinDistComponent(0.0, 2.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(MinDistComponent(0.0, 2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(MinDistComponent(0.0, 2.0, -1.5), 1.5);
}

// Independent evaluation of the Emrich decomposition: the per-dimension
// maxima are found by dense 1-d scans instead of the breakpoint analysis.
// Returns the decomposed objective (dominance <=> value < 0).
double DenseScanObjective(const Mbr& a, const Mbr& b, const Mbr& q,
                          int steps = 2001) {
  double total = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    double best = -1e300;
    for (int s = 0; s < steps; ++s) {
      const double t = q.lo()[i] +
                       (q.hi()[i] - q.lo()[i]) * s / (steps - 1);
      const double md = MaxDistComponent(a.lo()[i], a.hi()[i], t);
      const double nd = MinDistComponent(b.lo()[i], b.hi()[i], t);
      best = std::max(best, md * md - nd * nd);
    }
    total += best;
  }
  return total;
}

bool BruteForceRectDominates(const Mbr& a, const Mbr& b, const Mbr& q) {
  return DenseScanObjective(a, b, q) < 0.0;
}

TEST(RectDominatesTest, SimpleSeparatedCase) {
  const Mbr q({0.0, 0.0}, {1.0, 1.0});
  const Mbr a({2.0, 0.0}, {3.0, 1.0});
  const Mbr b({20.0, 0.0}, {21.0, 1.0});
  EXPECT_TRUE(RectDominates(a, b, q));
  EXPECT_FALSE(RectDominates(b, a, q));
}

TEST(RectDominatesTest, TouchingBoxesNeverDominate) {
  const Mbr q({0.0, 0.0}, {1.0, 1.0});
  const Mbr a({2.0, 0.0}, {3.0, 1.0});
  const Mbr b({3.0, 0.0}, {4.0, 1.0});  // shares a face with a
  EXPECT_FALSE(RectDominates(a, b, q));
}

TEST(RectDominatesTest, SelfNeverDominates) {
  const Mbr a({2.0, 0.0}, {3.0, 1.0});
  const Mbr q({0.0, 0.0}, {1.0, 1.0});
  EXPECT_FALSE(RectDominates(a, a, q));
}

// The paper's Lemma 3 scenario translated to boxes: a fat query region
// straddles the mid-space, so the corner-to-corner bounds cross.
TEST(RectDominatesTest, FatQueryBlocksWeakDominance) {
  const Mbr a({-1.0, 9.0}, {1.0, 11.0});
  const Mbr b({-1.0, -11.0}, {1.0, -9.0});
  const Mbr big_q({-30.0, 0.5}, {30.0, 20.0});
  // Still decided exactly by the per-dimension decomposition.
  EXPECT_EQ(RectDominates(a, b, big_q), BruteForceRectDominates(a, b, big_q));
}

TEST(RectDominatesPropertyTest, AgreesWithBruteForceIn2D) {
  Rng rng(606);
  int positives = 0;
  for (int iter = 0; iter < 800; ++iter) {
    auto random_box = [&](double spread) {
      const double x = rng.Uniform(-spread, spread);
      const double y = rng.Uniform(-spread, spread);
      return Mbr({x, y},
                 {x + rng.Uniform(0.1, 4.0), y + rng.Uniform(0.1, 4.0)});
    };
    const Mbr a = random_box(10.0);
    const Mbr b = random_box(10.0);
    const Mbr q = random_box(10.0);
    const double objective = DenseScanObjective(a, b, q);
    if (std::fabs(objective) < 1e-6) continue;  // borderline, skip
    const bool fast = RectDominates(a, b, q);
    EXPECT_EQ(fast, objective < 0.0)
        << a.ToString() << " " << b.ToString() << " " << q.ToString();
    if (fast) ++positives;
  }
  EXPECT_GT(positives, 10);  // the sweep exercises both outcomes
}

TEST(RectDominatesPropertyTest, AgreesWithBruteForceIn3D) {
  Rng rng(607);
  for (int iter = 0; iter < 400; ++iter) {
    auto random_box = [&]() {
      Point lo(3), hi(3);
      for (int i = 0; i < 3; ++i) {
        lo[i] = rng.Uniform(-8.0, 8.0);
        hi[i] = lo[i] + rng.Uniform(0.1, 3.0);
      }
      return Mbr(lo, hi);
    };
    const Mbr a = random_box();
    const Mbr b = random_box();
    const Mbr q = random_box();
    const double objective = DenseScanObjective(a, b, q);
    if (std::fabs(objective) < 1e-6) continue;
    EXPECT_EQ(RectDominates(a, b, q), objective < 0.0)
        << a.ToString() << " " << b.ToString() << " " << q.ToString();
  }
}

// The MBR criterion's zero-allocation form must decide exactly as the
// reference on materialized boxes. Each draw places Sa near Sq and Sb in
// one of three relations to Sa's box (separated, touching on one face,
// overlapping); any of the three spheres may be a point (r = 0). Centres
// and radii are multiples of 1/4, so a touching face is exact in floating
// point and the boxes' corners are too.
TEST(RectDominatesPropertyTest, SphereFormMatchesTheBoxReference) {
  Rng rng(608);
  auto quarter = [&](double lo, double hi) {
    return std::round(rng.Uniform(lo, hi) * 4.0) / 4.0;
  };
  auto radius = [&] {
    return rng.UniformU64(5) == 0 ? 0.0 : quarter(0.25, 3.0);
  };
  for (size_t d : {1, 2, 3, 4, 8, 50}) {
    int dominated = 0;
    int not_dominated = 0;
    for (int iter = 0; iter < 600; ++iter) {
      Point cq(d), ca(d), cb(d);
      const double rq = radius();
      const double ra = radius();
      const double rb = radius();
      const uint64_t relation = rng.UniformU64(3);
      const size_t face = rng.UniformU64(d);
      for (size_t i = 0; i < d; ++i) {
        cq[i] = quarter(-4.0, 4.0);
        ca[i] = cq[i] + quarter(-3.0, 3.0);
        if (relation == 0) {  // separated: Sb's box well clear of Sa's
          cb[i] = ca[i] + ra + rb + quarter(1.0, 20.0);
        } else if (relation == 1) {  // touching: one shared face
          cb[i] = i == face ? ca[i] + ra + rb : ca[i] + quarter(-2.0, 2.0);
        } else {  // overlapping
          cb[i] = ca[i] + quarter(-1.0, 1.0);
        }
      }
      const Hypersphere sq(cq, rq), sa(ca, ra), sb(cb, rb);
      const bool reference =
          RectDominates(Mbr::FromSphere(sa), Mbr::FromSphere(sb),
                        Mbr::FromSphere(sq));
      EXPECT_EQ(RectDominatesSpheres(sa.view(), sb.view(), sq.view()),
                reference)
          << "d=" << d << " relation=" << relation << " "
          << Mbr::FromSphere(sa).ToString() << " "
          << Mbr::FromSphere(sb).ToString() << " "
          << Mbr::FromSphere(sq).ToString();
      // Both forms must also agree with the swapped roles.
      EXPECT_EQ(RectDominatesSpheres(sb.view(), sa.view(), sq.view()),
                RectDominates(Mbr::FromSphere(sb), Mbr::FromSphere(sa),
                              Mbr::FromSphere(sq)))
          << "d=" << d << " relation=" << relation << " swapped";
      ++(reference ? dominated : not_dominated);
    }
    // The draws exercise both decisions at every d.
    EXPECT_GT(dominated, 20) << "d=" << d;
    EXPECT_GT(not_dominated, 20) << "d=" << d;
  }
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "geometry/point.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace hyperdom {
namespace {

TEST(PointTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({0, 0}, {5, 7}), 0.0);
}

TEST(PointTest, Norms) {
  EXPECT_DOUBLE_EQ(SquaredNorm({3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm({}), 0.0);
}

TEST(PointTest, DistMatchesPaperEquationOne) {
  // Eq. (1): sqrt(sum of squared coordinate differences).
  EXPECT_DOUBLE_EQ(Dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDist({1, 1, 1}, {2, 2, 2}), 3.0);
  EXPECT_DOUBLE_EQ(Dist({7}, {7}), 0.0);
}

TEST(PointTest, Arithmetic) {
  EXPECT_EQ(Sub({5, 5}, {2, 3}), (Point{3, 2}));
  EXPECT_EQ(Scale({1, -2}, 3.0), (Point{3, -6}));
  EXPECT_EQ(AddScaled({1, 1}, 2.0, {3, 4}), (Point{7, 9}));
  EXPECT_EQ(Midpoint({0, 0}, {4, 6}), (Point{2, 3}));
}

TEST(PointTest, NormalizedHasUnitNorm) {
  const Point u = Normalized({3, 4});
  EXPECT_DOUBLE_EQ(Norm(u), 1.0);
  EXPECT_DOUBLE_EQ(u[0], 0.6);
  EXPECT_DOUBLE_EQ(u[1], 0.8);
}

TEST(PointTest, ToStringFormat) {
  EXPECT_EQ(ToString({1, 2.5}), "(1, 2.5)");
  EXPECT_EQ(ToString({}), "()");
}

TEST(PointPropertyTest, TriangleInequality) {
  Rng rng(404);
  for (int i = 0; i < 2000; ++i) {
    const size_t d = 1 + rng.UniformU64(10);
    Point a(d), b(d), c(d);
    for (size_t j = 0; j < d; ++j) {
      a[j] = rng.Uniform(-100, 100);
      b[j] = rng.Uniform(-100, 100);
      c[j] = rng.Uniform(-100, 100);
    }
    EXPECT_LE(Dist(a, c), Dist(a, b) + Dist(b, c) + 1e-9);
  }
}

TEST(PointPropertyTest, CauchySchwarz) {
  Rng rng(405);
  for (int i = 0; i < 2000; ++i) {
    const size_t d = 1 + rng.UniformU64(10);
    Point a(d), b(d);
    for (size_t j = 0; j < d; ++j) {
      a[j] = rng.Uniform(-10, 10);
      b[j] = rng.Uniform(-10, 10);
    }
    EXPECT_LE(std::fabs(Dot(a, b)), Norm(a) * Norm(b) + 1e-9);
  }
}

TEST(PointPropertyTest, DistSymmetricAndNonNegative) {
  Rng rng(406);
  for (int i = 0; i < 2000; ++i) {
    Point a(4), b(4);
    for (size_t j = 0; j < 4; ++j) {
      a[j] = rng.Gaussian(0, 50);
      b[j] = rng.Gaussian(0, 50);
    }
    EXPECT_GE(Dist(a, b), 0.0);
    EXPECT_DOUBLE_EQ(Dist(a, b), Dist(b, a));
    EXPECT_DOUBLE_EQ(Dist(a, a), 0.0);
  }
}

TEST(PointPropertyTest, SquaredDistConsistentWithDist) {
  Rng rng(407);
  for (int i = 0; i < 1000; ++i) {
    Point a(6), b(6);
    for (size_t j = 0; j < 6; ++j) {
      a[j] = rng.Gaussian(0, 30);
      b[j] = rng.Gaussian(0, 30);
    }
    EXPECT_NEAR(Dist(a, b) * Dist(a, b), SquaredDist(a, b),
                1e-9 * (1.0 + SquaredDist(a, b)));
  }
}

}  // namespace
}  // namespace hyperdom

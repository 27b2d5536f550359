// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shared helpers for the hyperdom test suite: deterministic random scene
// builders and margin-aware ground truth (so property sweeps never compare
// decisions on floating-point razor edges).

#ifndef HYPERDOM_TESTS_TEST_UTIL_H_
#define HYPERDOM_TESTS_TEST_UTIL_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dominance/numeric_oracle.h"
#include "geometry/hypersphere.h"
#include "index/entry.h"
#include "index/ss_tree.h"

namespace hyperdom {
namespace test {

/// A random point with coordinates ~ Gaussian(mean, stddev).
inline Point RandomPoint(Rng* rng, size_t dim, double mean = 100.0,
                         double stddev = 25.0) {
  Point p(dim);
  for (auto& v : p) v = rng->Gaussian(mean, stddev);
  return p;
}

/// A random hypersphere following the paper's synthetic recipe.
inline Hypersphere RandomSphere(Rng* rng, size_t dim, double radius_mean) {
  const double r = rng->Gaussian(radius_mean, radius_mean / 4.0);
  return Hypersphere(RandomPoint(rng, dim), std::max(0.0, r));
}

/// One random dominance scene.
struct Scene {
  Hypersphere sa;
  Hypersphere sb;
  Hypersphere sq;
};

inline Scene RandomScene(Rng* rng, size_t dim, double radius_mean) {
  return Scene{RandomSphere(rng, dim, radius_mean),
               RandomSphere(rng, dim, radius_mean),
               RandomSphere(rng, dim, radius_mean)};
}

/// Exact MDD margin of a scene: min distance difference minus (ra + rb).
/// Positive -> dominance (given non-overlap), negative -> no dominance;
/// |margin| below a tolerance means "too close to call", and sweeps skip
/// the comparison.
inline double MddMargin(const Scene& s) {
  return MinDistanceDifference(s.sa, s.sb, s.sq) -
         (s.sa.radius() + s.sb.radius());
}

/// Ground-truth dominance via the oracle.
inline bool OracleDominates(const Scene& s) {
  return !Overlaps(s.sa, s.sb) && MddMargin(s) > 0.0;
}

/// True when the scene is too close to the decision boundary for exact
/// comparison across independently rounded implementations.
inline bool IsBorderline(const Scene& s, double tol = 1e-6) {
  if (std::fabs(MddMargin(s)) < tol) return true;
  // Overlap boundary is a second razor edge.
  const double gap = Dist(s.sa.center(), s.sb.center()) -
                     (s.sa.radius() + s.sb.radius());
  return std::fabs(gap) < tol;
}

/// Pretty label for gtest diagnostics.
inline std::string SceneToString(const Scene& s) {
  return "Sa=" + s.sa.ToString() + " Sb=" + s.sb.ToString() +
         " Sq=" + s.sq.ToString();
}

/// FNV-1a offset basis: the seed of a DigestEntries chain.
constexpr uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

/// Folds every entry's id and sphere bits, in the order given, into the
/// FNV-1a digest `h`. Pinned-work tests chain it over many answers.
inline uint64_t DigestEntries(uint64_t h,
                              const std::vector<DataEntry>& entries) {
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const auto& e : entries) {
    mix(e.id);
    for (double c : e.sphere.center()) mix(std::bit_cast<uint64_t>(c));
    mix(std::bit_cast<uint64_t>(e.sphere.radius()));
  }
  return h;
}

/// The bounds the SS-tree traversal (query/knn_traversal.h) gives the
/// children of internal `node` against `sq`, from the same kernel calls:
/// (*sphere)[i] is the MinDist of child i's sphere, (*box)[i] of its box.
/// The traversal bounds the child by the larger of the two.
inline void SsChildBounds(const SsTreeNode& node, const Hypersphere& sq,
                          std::vector<double>* sphere,
                          std::vector<double>* box) {
  const size_t n = node.children().size();
  sphere->resize(n);
  box->resize(n);
  BatchedMinDistSpan(node.child_centers(), node.child_radii(), sq.dim(), n,
                     sq.center().data(), sq.radius(), sphere->data());
  BatchedBoxMinDistSpan(node.child_boxes(), sq.dim(), n, sq.center().data(),
                        sq.radius(), box->data());
}

/// The same pair for the root of a non-empty tree: the MinDist of the
/// root sphere, then of the root box.
inline std::pair<double, double> SsRootBounds(const SsTree& tree,
                                              const Hypersphere& sq) {
  double box = 0.0;
  BatchedBoxMinDistSpan(tree.root_box().data(), sq.dim(), 1,
                        sq.center().data(), sq.radius(), &box);
  return {MinDist(tree.root()->bounding_sphere(), sq), box};
}

}  // namespace test
}  // namespace hyperdom

#endif  // HYPERDOM_TESTS_TEST_UTIL_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The force-inline kernel core shared by every spelling of the O(d)
// distance arithmetic: the out-of-line span kernels (geometry/point.cc),
// the always-scalar reference kernels (geometry/scalar_kernels.cc), and
// the inline SphereView kernels (geometry/hypersphere.h). There is exactly
// one definition of each accumulation loop and of each radius-combine
// expression in the library; whoever needs the arithmetic includes this
// header instead of retyping it, so the paths cannot drift bit-wise.
//
// -- The accumulation-order contract (v2) ----------------------------------
//
// Reductions over `dim` coordinates are evaluated in a FIXED order that is
// identical across the portable scalar build, the vectorized
// (HYPERDOM_NATIVE / AVX2) build, and the scalar reference kernels:
//
//   * dim <  kStridedLanes * 2 : plain ascending sequential sum
//                                (acc += term(i) for i = 0..dim-1).
//   * dim >= kStridedLanes * 2 : four strided partial sums, lane j owning
//                                elements 4k + j in ascending k, reduced
//                                as (l0 + l2) + (l1 + l3), then the tail
//                                elements (dim rounded down to a multiple
//                                of 4, onwards) added sequentially.
//
// The strided order is exactly what a 4-lane AVX2 vertical add produces
// (low/high 128-bit halves added pairwise, then the two scalars), so the
// SIMD kernels in point.cc realize the same sum with the same roundings —
// bit-identity between builds holds by construction, not by tolerance.
// Two hard rules keep it true:
//
//   1. No FMA contraction. A fused multiply-add skips the intermediate
//      rounding of the product and changes the sum. The TUs that compile
//      these loops (point.cc, scalar_kernels.cc) are built with
//      -ffp-contract=off (see src/CMakeLists.txt); do not instantiate the
//      accumulation templates from other TUs.
//   2. No reassociation. The compilers this repo supports (GCC/Clang
//      without -ffast-math) never reassociate FP sums; the strided scheme
//      is SIMD-mappable without asking them to.
//
// dim < 8 stays sequential so every value the pre-vectorization library
// produced at small dimensions is preserved exactly (the d = 2/3 exact
// pins in the test suite keep passing unchanged).

#ifndef HYPERDOM_GEOMETRY_KERNEL_CORE_H_
#define HYPERDOM_GEOMETRY_KERNEL_CORE_H_

#include <cstddef>

#if defined(_MSC_VER)
#define HYPERDOM_ALWAYS_INLINE __forceinline
#else
#define HYPERDOM_ALWAYS_INLINE inline __attribute__((always_inline))
#endif

namespace hyperdom {
namespace kernel_core {

/// Lanes of the strided accumulation scheme (one AVX2 register of
/// doubles). Part of the bit-identity contract — changing it changes
/// every reduction at dim >= kStridedCutover.
inline constexpr size_t kStridedLanes = 4;

/// Dimensions below this use the sequential (v1) order.
inline constexpr size_t kStridedCutover = 2 * kStridedLanes;

/// The fixed lane reduction: (l0 + l2) + (l1 + l3). Matches an AVX2
/// horizontal reduction that adds the low and high 128-bit halves first.
HYPERDOM_ALWAYS_INLINE double ReduceLanes(double l0, double l1, double l2,
                                          double l3) {
  return (l0 + l2) + (l1 + l3);
}

/// Fixed-order reduction of term(i) over i = 0..dim-1 under the v2
/// contract above: the one accumulation loop. Only instantiate from TUs
/// compiled with -ffp-contract=off (rule 1).
template <typename TermFn>
HYPERDOM_ALWAYS_INLINE double Accumulate(size_t dim, TermFn term) {
  if (dim < kStridedCutover) {
    double acc = 0.0;
    for (size_t i = 0; i < dim; ++i) acc += term(i);
    return acc;
  }
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const size_t main = dim & ~(kStridedLanes - 1);
  size_t i = 0;
  for (; i < main; i += kStridedLanes) {
    l0 += term(i);
    l1 += term(i + 1);
    l2 += term(i + 2);
    l3 += term(i + 3);
  }
  double acc = ReduceLanes(l0, l1, l2, l3);
  for (; i < dim; ++i) acc += term(i);
  return acc;
}

/// Accumulate over term(a[i], b[i]): the two-span reductions.
template <typename TermFn>
HYPERDOM_ALWAYS_INLINE double AccumulateSpan(const double* a, const double* b,
                                             size_t dim, TermFn term) {
  return Accumulate(dim, [&](size_t i) { return term(a[i], b[i]); });
}

/// Inner-product core under the v2 order.
HYPERDOM_ALWAYS_INLINE double DotCore(const double* a, const double* b,
                                      size_t dim) {
  return AccumulateSpan(a, b, dim,
                        [](double x, double y) { return x * y; });
}

/// Squared-distance core under the v2 order.
HYPERDOM_ALWAYS_INLINE double SquaredDistCore(const double* a, const double* b,
                                              size_t dim) {
  return AccumulateSpan(a, b, dim, [](double x, double y) {
    const double diff = x - y;
    return diff * diff;
  });
}

/// One axis of the box distance: the squared gap from q to [lo, hi],
/// ((lo - q)+ + (q - hi)+)^2. For lo <= hi at most one term is positive.
/// The clamps vectorize to branch-free compare-and-mask pairs; a std::max
/// spelling compiles to branches that run several times slower.
HYPERDOM_ALWAYS_INLINE double BoxGapSquared(double lo, double hi, double q) {
  const double below = lo - q;
  const double above = q - hi;
  const double gap =
      (below > 0.0 ? below : 0.0) + (above > 0.0 ? above : 0.0);
  return gap * gap;
}

/// Squared distance from q to the axis-aligned box [lo, hi] under the v2
/// order.
HYPERDOM_ALWAYS_INLINE double SquaredBoxDistCore(const double* lo,
                                                 const double* hi,
                                                 const double* q, size_t dim) {
  return Accumulate(
      dim, [&](size_t i) { return BoxGapSquared(lo[i], hi[i], q[i]); });
}

// -- Radius combines -------------------------------------------------------
// The single spelling of how a center distance and two radii become the
// sphere-to-sphere bounds. The radii grouping (ra + rb) is part of the
// bit-identity contract (symmetric in the arguments). Safe to inline into
// any TU: subtraction/addition chains contain no multiply-add pair, so FP
// contraction cannot alter them.

/// MaxDist(Sa, Sb) = Dist(ca, cb) + (ra + rb)  (paper Eq. (3)).
HYPERDOM_ALWAYS_INLINE double CombineMaxDist(double center_dist, double ra,
                                             double rb) {
  return center_dist + (ra + rb);
}

/// MinDist(Sa, Sb) = max(0, Dist(ca, cb) - (ra + rb))  (paper Eq. (4)).
HYPERDOM_ALWAYS_INLINE double CombineMinDist(double center_dist, double ra,
                                             double rb) {
  const double d = center_dist - (ra + rb);
  return d > 0.0 ? d : 0.0;
}

/// Overlap test on the squared center distance: Dist <= ra + rb.
HYPERDOM_ALWAYS_INLINE bool OverlapFromSquared(double sq_center_dist,
                                               double ra, double rb) {
  const double sum = ra + rb;
  return sq_center_dist <= sum * sum;
}

}  // namespace kernel_core
}  // namespace hyperdom

#endif  // HYPERDOM_GEOMETRY_KERNEL_CORE_H_

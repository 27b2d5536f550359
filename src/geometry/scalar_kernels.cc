// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The always-scalar reference kernels (hyperdom::scalar_ref). This TU is
// compiled with -ffp-contract=off -fno-tree-vectorize -fno-tree-slp-vectorize
// (src/CMakeLists.txt) so that even under HYPERDOM_NATIVE/-march=native it
// executes plain scalar instructions: it is the honest baseline of the
// scalar-vs-SIMD microbenchmark rows and the reference side of the
// bit-identity tests. The arithmetic itself is the kernel_core v2
// accumulation order — identical to the dispatched kernels by
// construction, so scalar_ref::K(...) == K(...) bit-for-bit in every
// build.

#include <cmath>

#include "geometry/kernel_core.h"
#include "geometry/point.h"

namespace hyperdom {
namespace scalar_ref {

double DotSpan(const double* a, const double* b, size_t dim) {
  return kernel_core::DotCore(a, b, dim);
}

double SquaredNormSpan(const double* a, size_t dim) {
  return kernel_core::DotCore(a, a, dim);
}

double NormSpan(const double* a, size_t dim) {
  return std::sqrt(SquaredNormSpan(a, dim));
}

double SquaredDistSpan(const double* a, const double* b, size_t dim) {
  return kernel_core::SquaredDistCore(a, b, dim);
}

double DistSpan(const double* a, const double* b, size_t dim) {
  return std::sqrt(SquaredDistSpan(a, b, dim));
}

void BatchedSqDistSpan(const double* rows, size_t dim, size_t count,
                       const double* q, double* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = SquaredDistSpan(rows + r * dim, q, dim);
  }
}

void BatchedMaxDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out) {
  for (size_t r = 0; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    out[r] = kernel_core::CombineMaxDist(d, radii[r], qr);
  }
}

void BatchedMinDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out) {
  for (size_t r = 0; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    out[r] = kernel_core::CombineMinDist(d, radii[r], qr);
  }
}

void BatchedMinMaxDistSpan(const double* rows, const double* radii,
                           size_t dim, size_t count, const double* q,
                           double qr, double* min_out, double* max_out) {
  for (size_t r = 0; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    min_out[r] = kernel_core::CombineMinDist(d, radii[r], qr);
    max_out[r] = kernel_core::CombineMaxDist(d, radii[r], qr);
  }
}

void BatchedBoxMinDistSpan(const double* boxes, size_t dim, size_t count,
                           const double* q, double qr, double* out) {
  for (size_t r = 0; r < count; ++r) {
    const double* lo = boxes + r * 2 * dim;
    const double d =
        std::sqrt(kernel_core::SquaredBoxDistCore(lo, lo + dim, q, dim));
    out[r] = kernel_core::CombineMinDist(d, 0.0, qr);
  }
}

}  // namespace scalar_ref
}  // namespace hyperdom

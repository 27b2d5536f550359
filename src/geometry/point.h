// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// d-dimensional point arithmetic. Every kernel here is a single pass over
// the coordinates (O(d)); the dominance criteria built on top inherit that
// bound, which is the "efficiency" requirement of the paper (Section 1).

#ifndef HYPERDOM_GEOMETRY_POINT_H_
#define HYPERDOM_GEOMETRY_POINT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace hyperdom {

/// A d-dimensional point with Euclidean coordinates.
using Point = std::vector<double>;

// -- Span kernels ----------------------------------------------------------
//
// The raw O(d) cores, operating on contiguous `const double*` coordinate
// spans. These are the single source of truth for the arithmetic: the
// Point overloads below and the SphereView/SphereStore layers all delegate
// here, so an AoS `std::vector` caller and a columnar-store caller execute
// bit-identical instruction sequences. Every reduction follows the fixed
// accumulation order of geometry/kernel_core.h ("v2": sequential below
// dim 8, four strided lanes above), which is what lets the AVX2 build
// under HYPERDOM_NATIVE return bit-identical values to the portable
// scalar build (see docs/performance.md, "Vectorization").

/// Inner product over `dim` contiguous coordinates.
double DotSpan(const double* a, const double* b, size_t dim);

/// Squared L2 norm over `dim` contiguous coordinates.
double SquaredNormSpan(const double* a, size_t dim);

/// L2 norm over `dim` contiguous coordinates.
double NormSpan(const double* a, size_t dim);

/// Squared Euclidean distance over `dim` contiguous coordinates.
double SquaredDistSpan(const double* a, const double* b, size_t dim);

/// Euclidean distance over `dim` contiguous coordinates.
double DistSpan(const double* a, const double* b, size_t dim);

/// The compile-time kernel dispatch of this build: "avx2" when the span
/// kernels were compiled against AVX2 intrinsics (HYPERDOM_NATIVE on a
/// machine with AVX2), "scalar" for the portable fallback. Either way the
/// returned VALUES are identical; this only names the instruction path.
const char* KernelDispatchName();

// -- Batched span kernels --------------------------------------------------
//
// One query against a contiguous block of rows — the SphereStore arena
// layout (geometry/sphere rows at stride `dim`, radii in a parallel
// column). These are the leaf-scan/BestKnownList workhorses: the per-call
// overhead is amortized over the block and each row's distance is computed
// exactly once even when both bounds are needed. Each row's result is
// bit-identical to the corresponding one-at-a-time kernel call — batching
// is a scheduling change, not an arithmetic change.

/// out[r] = SquaredDistSpan(rows + r*dim, q, dim) for r in [0, count).
void BatchedSqDistSpan(const double* rows, size_t dim, size_t count,
                       const double* q, double* out);

/// out[r] = MaxDist of row r (radius radii[r]) to the query (center q,
/// radius qr): DistSpan(row, q) + (radii[r] + qr).
void BatchedMaxDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out);

/// out[r] = MinDist of row r to the query: max(0, dist - (radii[r] + qr)).
void BatchedMinDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out);

/// Fused form: computes each row's center distance once and derives both
/// bounds — bit-identical to separate BatchedMinDistSpan /
/// BatchedMaxDistSpan calls at half the distance work.
void BatchedMinMaxDistSpan(const double* rows, const double* radii,
                           size_t dim, size_t count, const double* q,
                           double qr, double* min_out, double* max_out);

/// out[r] = MinDist of axis-aligned box r to the query (center q, radius
/// qr): max(0, sqrt(sum_i gap_i^2) - qr), gap_i = (lo_i - q_i)+ +
/// (q_i - hi_i)+. Box r is the 2 * dim doubles at boxes + r * 2 * dim: its
/// low corner, then its high corner.
void BatchedBoxMinDistSpan(const double* boxes, size_t dim, size_t count,
                           const double* q, double qr, double* out);

// -- Scalar reference kernels ----------------------------------------------
//
// The same kernels, permanently compiled WITHOUT vector instructions
// (geometry/scalar_kernels.cc is built with -fno-tree-vectorize and
// -ffp-contract=off even under HYPERDOM_NATIVE). Two jobs: the in-binary
// baseline for the scalar-vs-SIMD microbenchmark rows, and the reference
// side of the bit-identity tests — in every build, for every input,
// scalar_ref::K(...) must equal K(...) bit-for-bit.
namespace scalar_ref {

double DotSpan(const double* a, const double* b, size_t dim);
double SquaredNormSpan(const double* a, size_t dim);
double NormSpan(const double* a, size_t dim);
double SquaredDistSpan(const double* a, const double* b, size_t dim);
double DistSpan(const double* a, const double* b, size_t dim);
void BatchedSqDistSpan(const double* rows, size_t dim, size_t count,
                       const double* q, double* out);
void BatchedMaxDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out);
void BatchedMinDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out);
void BatchedMinMaxDistSpan(const double* rows, const double* radii,
                           size_t dim, size_t count, const double* q,
                           double qr, double* min_out, double* max_out);
void BatchedBoxMinDistSpan(const double* boxes, size_t dim, size_t count,
                           const double* q, double qr, double* out);

}  // namespace scalar_ref

// -- Point adapters --------------------------------------------------------

/// Inner product <a, b>. Requires a.size() == b.size().
double Dot(const Point& a, const Point& b);

/// Squared L2 norm of `a`.
double SquaredNorm(const Point& a);

/// L2 norm of `a`.
double Norm(const Point& a);

/// Squared Euclidean distance between `a` and `b` (Eq. (1) squared).
double SquaredDist(const Point& a, const Point& b);

/// Euclidean distance between `a` and `b` (Eq. (1) of the paper).
double Dist(const Point& a, const Point& b);

/// a - b, element-wise.
Point Sub(const Point& a, const Point& b);

/// s * a.
Point Scale(const Point& a, double s);

/// a + s * b (fused form used by generators and the oracle).
Point AddScaled(const Point& a, double s, const Point& b);

/// The midpoint (a + b) / 2.
Point Midpoint(const Point& a, const Point& b);

/// a / ||a||. Requires ||a|| > 0.
Point Normalized(const Point& a);

/// "(x, y, ...)" with 6 significant digits, for diagnostics.
std::string ToString(const Point& p);

}  // namespace hyperdom

#endif  // HYPERDOM_GEOMETRY_POINT_H_

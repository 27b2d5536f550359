// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// This TU is compiled with -ffp-contract=off (src/CMakeLists.txt): the
// kernel_core accumulation templates and the AVX2 mul/add intrinsic pairs
// below must not be fused into FMAs, or the values drift from the portable
// build and the bit-identity contract breaks.

#include "geometry/point.h"

#include <cassert>
#include <cmath>

#include "common/str_util.h"
#include "geometry/kernel_core.h"

// The vectorized path is keyed purely off the target ISA: HYPERDOM_NATIVE
// adds -march=native, and on an AVX2 machine that defines __AVX2__ here.
// Rows in the SphereStore arena are only 64-byte aligned at the arena
// BASE; a row at an odd dim lands on an arbitrary 8-byte boundary, so
// every vector load below is an unaligned load (loadu) by contract.
#if defined(__AVX2__)
#include <immintrin.h>
#define HYPERDOM_KERNELS_AVX2 1
#endif
// The box kernel's vector path needs only SSE2, the x86-64 baseline, so
// the portable build takes it too.
#if defined(__SSE2__)
#include <emmintrin.h>
#define HYPERDOM_KERNELS_SSE2 1
#endif

namespace hyperdom {

namespace {

using kernel_core::kStridedCutover;
using kernel_core::kStridedLanes;

#if defined(HYPERDOM_KERNELS_AVX2)

// Horizontal reduction matching kernel_core::ReduceLanes exactly: the
// 256-bit accumulator holds {l0, l1, l2, l3}; adding the low and high
// 128-bit halves gives {l0+l2, l1+l3}, and the final scalar add produces
// (l0 + l2) + (l1 + l3).
HYPERDOM_ALWAYS_INLINE double ReduceVector(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// AVX2 realizations of the v2 strided order (only called at
// dim >= kStridedCutover; smaller dims stay on the sequential scalar
// core). Vertical adds accumulate lane j over elements 4k + j in
// ascending k — the same partial sums, in the same order, as the scalar
// strided loop.

HYPERDOM_ALWAYS_INLINE double DotAvx2(const double* a, const double* b,
                                      size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  const size_t main = dim & ~(kStridedLanes - 1);
  size_t i = 0;
  for (; i < main; i += kStridedLanes) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double out = ReduceVector(acc);
  for (; i < dim; ++i) out += a[i] * b[i];
  return out;
}

HYPERDOM_ALWAYS_INLINE double SquaredDistAvx2(const double* a,
                                              const double* b, size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  const size_t main = dim & ~(kStridedLanes - 1);
  size_t i = 0;
  for (; i < main; i += kStridedLanes) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  double out = ReduceVector(acc);
  for (; i < dim; ++i) {
    const double diff = a[i] - b[i];
    out += diff * diff;
  }
  return out;
}

// Rows interleaved per batched-kernel group. Eight independent
// accumulator chains are needed to cover the FP add pipeline: two vector
// add ports x 4-cycle latency.
constexpr size_t kBatchRows = 8;

// Squared center distances of kBatchRows consecutive rows to q at once.
// Each row owns a private accumulator fed with the exact instruction
// sequence SquaredDistAvx2 uses (same chunk order, same vertical adds,
// same ReduceVector, same sequential tail), so every out[j] is
// bit-identical to a serial call on that row. Only the cross-row schedule
// changes: the serial kernel is bound by the 4-cycle latency of its
// single accumulator's loop-carried add, and eight independent chains
// keep both add ports full instead.
HYPERDOM_ALWAYS_INLINE void SquaredDistAvx2x8(const double* rows, size_t dim,
                                              const double* q, double* out) {
  const double* r0 = rows;
  const double* r1 = rows + dim;
  const double* r2 = rows + 2 * dim;
  const double* r3 = rows + 3 * dim;
  const double* r4 = rows + 4 * dim;
  const double* r5 = rows + 5 * dim;
  const double* r6 = rows + 6 * dim;
  const double* r7 = rows + 7 * dim;
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  __m256d a4 = _mm256_setzero_pd();
  __m256d a5 = _mm256_setzero_pd();
  __m256d a6 = _mm256_setzero_pd();
  __m256d a7 = _mm256_setzero_pd();
  const size_t main = dim & ~(kStridedLanes - 1);
  size_t i = 0;
  for (; i < main; i += kStridedLanes) {
    const __m256d qv = _mm256_loadu_pd(q + i);
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(r0 + i), qv);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(r1 + i), qv);
    const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(r2 + i), qv);
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(r3 + i), qv);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
    const __m256d d4 = _mm256_sub_pd(_mm256_loadu_pd(r4 + i), qv);
    const __m256d d5 = _mm256_sub_pd(_mm256_loadu_pd(r5 + i), qv);
    const __m256d d6 = _mm256_sub_pd(_mm256_loadu_pd(r6 + i), qv);
    const __m256d d7 = _mm256_sub_pd(_mm256_loadu_pd(r7 + i), qv);
    a4 = _mm256_add_pd(a4, _mm256_mul_pd(d4, d4));
    a5 = _mm256_add_pd(a5, _mm256_mul_pd(d5, d5));
    a6 = _mm256_add_pd(a6, _mm256_mul_pd(d6, d6));
    a7 = _mm256_add_pd(a7, _mm256_mul_pd(d7, d7));
  }
  double s0 = ReduceVector(a0);
  double s1 = ReduceVector(a1);
  double s2 = ReduceVector(a2);
  double s3 = ReduceVector(a3);
  double s4 = ReduceVector(a4);
  double s5 = ReduceVector(a5);
  double s6 = ReduceVector(a6);
  double s7 = ReduceVector(a7);
  for (; i < dim; ++i) {
    const double qi = q[i];
    const double t0 = r0[i] - qi;
    const double t1 = r1[i] - qi;
    const double t2 = r2[i] - qi;
    const double t3 = r3[i] - qi;
    s0 += t0 * t0;
    s1 += t1 * t1;
    s2 += t2 * t2;
    s3 += t3 * t3;
    const double t4 = r4[i] - qi;
    const double t5 = r5[i] - qi;
    const double t6 = r6[i] - qi;
    const double t7 = r7[i] - qi;
    s4 += t4 * t4;
    s5 += t5 * t5;
    s6 += t6 * t6;
    s7 += t7 * t7;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
  out[4] = s4;
  out[5] = s5;
  out[6] = s6;
  out[7] = s7;
}

// Packed square roots of the eight non-negative squared distances. IEEE
// 754 requires sqrt to be correctly rounded, so vsqrtpd produces the
// same bits as the scalar std::sqrt the serial path uses (inputs are
// sums of squares, never negative), while retiring four roots per
// instruction instead of one.
HYPERDOM_ALWAYS_INLINE void SqrtX8(const double* sq, double* out) {
  _mm256_storeu_pd(out, _mm256_sqrt_pd(_mm256_loadu_pd(sq)));
  _mm256_storeu_pd(out + 4, _mm256_sqrt_pd(_mm256_loadu_pd(sq + 4)));
}

#endif  // HYPERDOM_KERNELS_AVX2

#if defined(HYPERDOM_KERNELS_SSE2)

// kernel_core::SquaredBoxDistCore's v2 strided order in two 128-bit
// accumulators, {l0, l1} and {l2, l3}, reduced as (l0 + l2) + (l1 + l3);
// only called at dim >= kStridedCutover. The gap of a lane is
// max(max(lo - q, q - hi), 0): after the two subtractions, two maxpd where
// the core's clamps and their sum take five instructions. For lo <= hi,
// which holds for every box, at most one of lo - q and q - hi is
// positive, so both spellings give the same bits.
HYPERDOM_ALWAYS_INLINE double SquaredBoxDistSse2(const double* lo,
                                                 const double* hi,
                                                 const double* q,
                                                 size_t dim) {
  const __m128d zero = _mm_setzero_pd();
  auto gap = [&](size_t i) {
    const __m128d qv = _mm_loadu_pd(q + i);
    return _mm_max_pd(_mm_max_pd(_mm_sub_pd(_mm_loadu_pd(lo + i), qv),
                                 _mm_sub_pd(qv, _mm_loadu_pd(hi + i))),
                      zero);
  };
  __m128d low_lanes = zero;
  __m128d high_lanes = zero;
  const size_t main = dim & ~(kStridedLanes - 1);
  size_t i = 0;
  for (; i < main; i += kStridedLanes) {
    const __m128d g01 = gap(i);
    const __m128d g23 = gap(i + 2);
    low_lanes = _mm_add_pd(low_lanes, _mm_mul_pd(g01, g01));
    high_lanes = _mm_add_pd(high_lanes, _mm_mul_pd(g23, g23));
  }
  const __m128d pair = _mm_add_pd(low_lanes, high_lanes);
  double out =
      _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; i < dim; ++i) out += kernel_core::BoxGapSquared(lo[i], hi[i], q[i]);
  return out;
}

#endif  // HYPERDOM_KERNELS_SSE2

double SquaredBoxDist(const double* lo, const double* hi, const double* q,
                      size_t dim) {
#if defined(HYPERDOM_KERNELS_SSE2)
  if (dim >= kStridedCutover) return SquaredBoxDistSse2(lo, hi, q, dim);
#endif
  return kernel_core::SquaredBoxDistCore(lo, hi, q, dim);
}

}  // namespace

const char* KernelDispatchName() {
#if defined(HYPERDOM_KERNELS_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

double DotSpan(const double* a, const double* b, size_t dim) {
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) return DotAvx2(a, b, dim);
#endif
  return kernel_core::DotCore(a, b, dim);
}

double SquaredNormSpan(const double* a, size_t dim) {
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) return DotAvx2(a, a, dim);
#endif
  return kernel_core::DotCore(a, a, dim);
}

double NormSpan(const double* a, size_t dim) {
  return std::sqrt(SquaredNormSpan(a, dim));
}

double SquaredDistSpan(const double* a, const double* b, size_t dim) {
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) return SquaredDistAvx2(a, b, dim);
#endif
  return kernel_core::SquaredDistCore(a, b, dim);
}

double DistSpan(const double* a, const double* b, size_t dim) {
  return std::sqrt(SquaredDistSpan(a, b, dim));
}

void BatchedSqDistSpan(const double* rows, size_t dim, size_t count,
                       const double* q, double* out) {
  size_t r = 0;
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) {
    for (; r + kBatchRows <= count; r += kBatchRows) {
      SquaredDistAvx2x8(rows + r * dim, dim, q, out + r);
    }
  }
#endif
  for (; r < count; ++r) {
    out[r] = SquaredDistSpan(rows + r * dim, q, dim);
  }
}

void BatchedMaxDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out) {
  size_t r = 0;
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) {
    double sq[kBatchRows];
    double d[kBatchRows];
    for (; r + kBatchRows <= count; r += kBatchRows) {
      SquaredDistAvx2x8(rows + r * dim, dim, q, sq);
      SqrtX8(sq, d);
      for (size_t j = 0; j < kBatchRows; ++j) {
        out[r + j] = kernel_core::CombineMaxDist(d[j], radii[r + j], qr);
      }
    }
  }
#endif
  for (; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    out[r] = kernel_core::CombineMaxDist(d, radii[r], qr);
  }
}

void BatchedMinDistSpan(const double* rows, const double* radii, size_t dim,
                        size_t count, const double* q, double qr,
                        double* out) {
  size_t r = 0;
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) {
    double sq[kBatchRows];
    double d[kBatchRows];
    for (; r + kBatchRows <= count; r += kBatchRows) {
      SquaredDistAvx2x8(rows + r * dim, dim, q, sq);
      SqrtX8(sq, d);
      for (size_t j = 0; j < kBatchRows; ++j) {
        out[r + j] = kernel_core::CombineMinDist(d[j], radii[r + j], qr);
      }
    }
  }
#endif
  for (; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    out[r] = kernel_core::CombineMinDist(d, radii[r], qr);
  }
}

void BatchedMinMaxDistSpan(const double* rows, const double* radii,
                           size_t dim, size_t count, const double* q,
                           double qr, double* min_out, double* max_out) {
  size_t r = 0;
#if defined(HYPERDOM_KERNELS_AVX2)
  if (dim >= kStridedCutover) {
    double sq[kBatchRows];
    double d[kBatchRows];
    for (; r + kBatchRows <= count; r += kBatchRows) {
      SquaredDistAvx2x8(rows + r * dim, dim, q, sq);
      SqrtX8(sq, d);
      for (size_t j = 0; j < kBatchRows; ++j) {
        min_out[r + j] = kernel_core::CombineMinDist(d[j], radii[r + j], qr);
        max_out[r + j] = kernel_core::CombineMaxDist(d[j], radii[r + j], qr);
      }
    }
  }
#endif
  for (; r < count; ++r) {
    const double d = DistSpan(rows + r * dim, q, dim);
    min_out[r] = kernel_core::CombineMinDist(d, radii[r], qr);
    max_out[r] = kernel_core::CombineMaxDist(d, radii[r], qr);
  }
}

void BatchedBoxMinDistSpan(const double* boxes, size_t dim, size_t count,
                           const double* q, double qr, double* out) {
  for (size_t r = 0; r < count; ++r) {
    const double* lo = boxes + r * 2 * dim;
    const double d = std::sqrt(SquaredBoxDist(lo, lo + dim, q, dim));
    out[r] = kernel_core::CombineMinDist(d, 0.0, qr);
  }
}

double Dot(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  return DotSpan(a.data(), b.data(), a.size());
}

double SquaredNorm(const Point& a) {
  return SquaredNormSpan(a.data(), a.size());
}

double Norm(const Point& a) { return std::sqrt(SquaredNorm(a)); }

double SquaredDist(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  return SquaredDistSpan(a.data(), b.data(), a.size());
}

double Dist(const Point& a, const Point& b) {
  return std::sqrt(SquaredDist(a, b));
}

Point Sub(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  Point out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Point Scale(const Point& a, double s) {
  Point out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Point AddScaled(const Point& a, double s, const Point& b) {
  assert(a.size() == b.size());
  Point out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

Point Midpoint(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  Point out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = 0.5 * (a[i] + b[i]);
  return out;
}

Point Normalized(const Point& a) {
  const double n = Norm(a);
  assert(n > 0.0);
  return Scale(a, 1.0 / n);
}

std::string ToString(const Point& p) {
  std::string out = "(";
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(p[i]);
  }
  out += ")";
  return out;
}

}  // namespace hyperdom

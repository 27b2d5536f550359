// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Bit-identity sweep over the span kernels (geometry/kernel_core.h
// contract): in every build — portable scalar or HYPERDOM_NATIVE/AVX2 —
// the dispatched kernels, the always-scalar reference TU
// (geometry/scalar_kernels.cc), the batched forms, and the inline
// SphereView kernels of geometry/hypersphere.h must all return the SAME
// BITS for the same inputs. Comparisons go through the raw uint64_t
// representation so a one-ulp divergence (an FMA contraction, a
// reassociated sum, a drifted copy of a kernel body) fails loudly
// instead of hiding under an EXPECT_DOUBLE_EQ tolerance.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geometry/hypersphere.h"
#include "geometry/kernel_core.h"
#include "geometry/point.h"
#include "storage/sphere_store.h"
#include "test_util.h"

namespace hyperdom {
namespace {

// Bit-level equality: also distinguishes +0.0 / -0.0 and NaN payloads.
::testing::AssertionResult SameBits(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " vs " << b << " (bits differ)";
}

// The sweep dims: both sides of the strided cutover (8), every tail
// length mod 4, and the odd dims that land SphereStore rows on arbitrary
// 8-byte boundaries.
const size_t kDims[] = {1,  2,  3,  4,  5,  7,  8,   9,   15, 16,
                        31, 32, 50, 63, 64, 65, 67, 100, 128};

std::vector<double> RandomSpan(Rng* rng, size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->Uniform(-100.0, 100.0);
  return v;
}

TEST(KernelIdentityTest, DispatchNameMatchesBuildIsa) {
  // The test TU compiles with the same global flags as point.cc, so the
  // ISA macro visible here must agree with the library's dispatch.
#if defined(__AVX2__)
  EXPECT_STREQ(KernelDispatchName(), "avx2");
#else
  EXPECT_STREQ(KernelDispatchName(), "scalar");
#endif
}

TEST(KernelIdentityTest, DispatchedEqualsScalarReferenceEverywhere) {
  Rng rng(77001);
  for (size_t dim : kDims) {
    // Several offsets into a shared pool so vector loads see many
    // different (mis)alignments, not just the allocator's favorite.
    const std::vector<double> pool_a = RandomSpan(&rng, dim + 16);
    const std::vector<double> pool_b = RandomSpan(&rng, dim + 16);
    for (size_t off = 0; off < 8; ++off) {
      const double* a = pool_a.data() + off;
      const double* b = pool_b.data() + off;
      EXPECT_TRUE(SameBits(DotSpan(a, b, dim),
                           scalar_ref::DotSpan(a, b, dim)))
          << "dot dim=" << dim << " off=" << off;
      EXPECT_TRUE(SameBits(SquaredNormSpan(a, dim),
                           scalar_ref::SquaredNormSpan(a, dim)))
          << "sqnorm dim=" << dim << " off=" << off;
      EXPECT_TRUE(SameBits(NormSpan(a, dim), scalar_ref::NormSpan(a, dim)))
          << "norm dim=" << dim << " off=" << off;
      EXPECT_TRUE(SameBits(SquaredDistSpan(a, b, dim),
                           scalar_ref::SquaredDistSpan(a, b, dim)))
          << "sqdist dim=" << dim << " off=" << off;
      EXPECT_TRUE(SameBits(DistSpan(a, b, dim),
                           scalar_ref::DistSpan(a, b, dim)))
          << "dist dim=" << dim << " off=" << off;
    }
  }
}

TEST(KernelIdentityTest, BatchedEqualsSerialAndScalarReference) {
  Rng rng(77002);
  constexpr size_t kCount = 37;  // not a multiple of any lane width
  for (size_t dim : kDims) {
    const std::vector<double> rows = RandomSpan(&rng, kCount * dim);
    const std::vector<double> q = RandomSpan(&rng, dim);
    std::vector<double> radii(kCount);
    for (auto& r : radii) r = rng.Uniform(0.0, 5.0);
    const double qr = rng.Uniform(0.0, 5.0);

    std::vector<double> sq(kCount), mx(kCount), mn(kCount);
    std::vector<double> fused_mn(kCount), fused_mx(kCount);
    std::vector<double> ref(kCount), ref2(kCount);

    BatchedSqDistSpan(rows.data(), dim, kCount, q.data(), sq.data());
    BatchedMaxDistSpan(rows.data(), radii.data(), dim, kCount, q.data(), qr,
                       mx.data());
    BatchedMinDistSpan(rows.data(), radii.data(), dim, kCount, q.data(), qr,
                       mn.data());
    BatchedMinMaxDistSpan(rows.data(), radii.data(), dim, kCount, q.data(),
                          qr, fused_mn.data(), fused_mx.data());

    for (size_t r = 0; r < kCount; ++r) {
      const double* row = rows.data() + r * dim;
      const double d = DistSpan(row, q.data(), dim);
      EXPECT_TRUE(SameBits(sq[r], SquaredDistSpan(row, q.data(), dim)))
          << "sqdist dim=" << dim << " row=" << r;
      EXPECT_TRUE(
          SameBits(mx[r], kernel_core::CombineMaxDist(d, radii[r], qr)))
          << "maxdist dim=" << dim << " row=" << r;
      EXPECT_TRUE(
          SameBits(mn[r], kernel_core::CombineMinDist(d, radii[r], qr)))
          << "mindist dim=" << dim << " row=" << r;
      // Fused = separate, bit for bit.
      EXPECT_TRUE(SameBits(fused_mn[r], mn[r])) << "fused min row=" << r;
      EXPECT_TRUE(SameBits(fused_mx[r], mx[r])) << "fused max row=" << r;
    }

    // The scalar-reference batched forms agree with the dispatched ones.
    scalar_ref::BatchedSqDistSpan(rows.data(), dim, kCount, q.data(),
                                  ref.data());
    for (size_t r = 0; r < kCount; ++r) {
      EXPECT_TRUE(SameBits(ref[r], sq[r])) << "scalar_ref sq row=" << r;
    }
    scalar_ref::BatchedMinMaxDistSpan(rows.data(), radii.data(), dim, kCount,
                                      q.data(), qr, ref.data(), ref2.data());
    for (size_t r = 0; r < kCount; ++r) {
      EXPECT_TRUE(SameBits(ref[r], fused_mn[r]))
          << "scalar_ref min row=" << r;
      EXPECT_TRUE(SameBits(ref2[r], fused_mx[r]))
          << "scalar_ref max row=" << r;
    }
  }
}

// The box bound: dispatched and scalar-reference kernels agree bit for
// bit, batched and one box at a time, with the query centre inside, beside
// and outside the boxes on different axes.
TEST(KernelIdentityTest, BoxMinDistEqualsScalarReference) {
  Rng rng(77005);
  constexpr size_t kCount = 37;  // not a multiple of any lane width
  for (size_t dim : kDims) {
    std::vector<double> boxes(kCount * 2 * dim);
    for (size_t r = 0; r < kCount; ++r) {
      double* lo = boxes.data() + r * 2 * dim;
      for (size_t d = 0; d < dim; ++d) {
        lo[d] = rng.Uniform(-100.0, 100.0);
        lo[dim + d] = lo[d] + rng.Uniform(0.0, 60.0);
      }
    }
    const std::vector<double> q = RandomSpan(&rng, dim);
    const double qr = rng.Uniform(0.0, 5.0);
    std::vector<double> out(kCount), ref(kCount);
    BatchedBoxMinDistSpan(boxes.data(), dim, kCount, q.data(), qr,
                          out.data());
    scalar_ref::BatchedBoxMinDistSpan(boxes.data(), dim, kCount, q.data(), qr,
                                      ref.data());
    size_t positive = 0;
    for (size_t r = 0; r < kCount; ++r) {
      EXPECT_TRUE(SameBits(out[r], ref[r]))
          << "boxmindist dim=" << dim << " row=" << r;
      double one = 0.0;
      BatchedBoxMinDistSpan(boxes.data() + r * 2 * dim, dim, 1, q.data(), qr,
                            &one);
      EXPECT_TRUE(SameBits(one, out[r]))
          << "serial boxmindist dim=" << dim << " row=" << r;
      positive += out[r] > 0.0 ? 1 : 0;
    }
    EXPECT_GT(positive, 0u) << "dim=" << dim;
  }
}

TEST(KernelIdentityTest, ViewKernelsMatchSpanKernelCombines) {
  // The PR-5 lesson: the hypersphere.h view kernels are inline for ABI
  // reasons, which historically invited their bodies to drift from the
  // out-of-line span kernels. They now contain no local arithmetic; this
  // pins them, bit for bit, to the kernel_core combines over DistSpan —
  // and to the batched gather forms that claim identity with them.
  Rng rng(77003);
  for (size_t dim : kDims) {
    constexpr size_t kPairs = 64;
    std::vector<Hypersphere> spheres;
    spheres.reserve(kPairs + 1);
    for (size_t i = 0; i <= kPairs; ++i) {
      spheres.push_back(test::RandomSphere(&rng, dim, 3.0));
    }
    const SphereView q = spheres[kPairs].view();
    std::vector<SphereView> views(kPairs);
    for (size_t i = 0; i < kPairs; ++i) views[i] = spheres[i].view();

    std::vector<double> bmax(kPairs), bmin(kPairs), bmax2(kPairs);
    BatchedMinMaxDist(views.data(), kPairs, q, bmin.data(), bmax.data());
    BatchedMaxDist(views.data(), kPairs, q, bmax2.data());

    for (size_t i = 0; i < kPairs; ++i) {
      const SphereView a = views[i];
      const double d = DistSpan(a.center, q.center, a.dim);
      EXPECT_TRUE(SameBits(
          MaxDist(a, q),
          kernel_core::CombineMaxDist(d, a.radius, q.radius)))
          << "view maxdist dim=" << dim << " i=" << i;
      EXPECT_TRUE(SameBits(
          MinDist(a, q),
          kernel_core::CombineMinDist(d, a.radius, q.radius)))
          << "view mindist dim=" << dim << " i=" << i;
      EXPECT_EQ(Overlaps(a, q),
                kernel_core::OverlapFromSquared(
                    SquaredDistSpan(a.center, q.center, a.dim), a.radius,
                    q.radius))
          << "overlap dim=" << dim << " i=" << i;
      // Point-span overloads: rb folded as literal 0.0.
      EXPECT_TRUE(SameBits(
          MaxDist(a, q.center),
          kernel_core::CombineMaxDist(d, a.radius, 0.0)))
          << "view-point maxdist dim=" << dim;
      EXPECT_TRUE(SameBits(bmax[i], MaxDist(a, q))) << "gather max i=" << i;
      EXPECT_TRUE(SameBits(bmax2[i], MaxDist(a, q)))
          << "gather max-only i=" << i;
      EXPECT_TRUE(SameBits(bmin[i], MinDist(a, q))) << "gather min i=" << i;
    }
  }
}

TEST(KernelIdentityTest, OddDimStoreRowsNoFaultAndBitIdentical) {
  // SphereStore aligns only the arena BASE to 64 bytes; at odd dims every
  // subsequent row sits on an arbitrary 8-byte boundary. The vector path
  // must use unaligned loads by contract — this fuzz sweep would segfault
  // under -march=native if an aligned-load instruction ever crept in, and
  // the bit comparison catches value drift on the tails.
  Rng rng(77004);
  for (size_t dim : {size_t{1}, size_t{3}, size_t{7}, size_t{63}, size_t{65},
                     size_t{67}}) {
    constexpr size_t kRows = 129;
    SphereStore store(dim);
    store.Reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      store.Add(test::RandomSphere(&rng, dim, 2.0));
    }
    const std::vector<double> q = RandomSpan(&rng, dim);
    const double qr = rng.Uniform(0.0, 5.0);

    // Sub-ranges starting at every row offset: each start lands the block
    // base on a different 8-byte phase of the 64-byte arena alignment.
    std::vector<double> mn(kRows), mx(kRows);
    for (uint32_t start = 0; start < kRows; start += 7) {
      const size_t count = kRows - start;
      BatchedMinMaxDistSpan(store.center(start), store.radii_data() + start,
                            dim, count, q.data(), qr, mn.data(), mx.data());
      for (size_t r = 0; r < count; ++r) {
        const uint32_t slot = start + static_cast<uint32_t>(r);
        const double d = DistSpan(store.center(slot), q.data(), dim);
        EXPECT_TRUE(SameBits(
            mn[r],
            kernel_core::CombineMinDist(d, store.radius(slot), qr)))
            << "dim=" << dim << " start=" << start << " r=" << r;
        EXPECT_TRUE(SameBits(
            mx[r],
            kernel_core::CombineMaxDist(d, store.radius(slot), qr)))
            << "dim=" << dim << " start=" << start << " r=" << r;
        EXPECT_TRUE(SameBits(DistSpan(store.center(slot), q.data(), dim),
                             scalar_ref::DistSpan(store.center(slot),
                                                  q.data(), dim)))
            << "dim=" << dim << " slot=" << slot;
      }
    }
  }
}

}  // namespace
}  // namespace hyperdom

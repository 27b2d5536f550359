// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Zero-allocation guarantee on the dominance hot paths, mirroring the obs
// metrics hot-path assertion: a HyperbolaCriterion::Dominates call, a
// certified Decide that settles at tier 1, and the numeric oracle's
// MinDistanceDifference must not touch the heap. The coordinate transform
// (ComputeFocalCoords) and the quartic solver (SolveQuarticWithBoundsInto)
// were rebuilt span-based precisely so these paths allocate nothing.

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/rng.h"
#include "dominance/certified.h"
#include "dominance/hyperbola.h"
#include "dominance/numeric_oracle.h"
#include "storage/sphere_store.h"
#include "test_util.h"

namespace hyperdom {
namespace {

// A store of random triples at `dim`, pre-resolved to views. Building the
// fixture allocates, of course — the assertion windows below only cover
// the Decide/Dominates calls.
struct TripleSet {
  SphereStore store;
  size_t n;

  TripleSet(uint64_t seed, size_t n_triples, size_t dim)
      : store(dim), n(n_triples) {
    store.Reserve(3 * n_triples);
    Rng rng(seed);
    for (size_t i = 0; i < 3 * n_triples; ++i) {
      store.Add(test::RandomSphere(&rng, dim, 3.0));
    }
  }

  SphereView a(size_t t) const {
    return store.view(static_cast<uint32_t>(3 * t));
  }
  SphereView b(size_t t) const {
    return store.view(static_cast<uint32_t>(3 * t + 1));
  }
  SphereView q(size_t t) const {
    return store.view(static_cast<uint32_t>(3 * t + 2));
  }
};

TEST(DominanceZeroAllocTest, HyperbolaDominatesDoesNotAllocate) {
  for (size_t dim : {size_t{2}, size_t{10}, size_t{50}}) {
    const TripleSet triples(4200 + dim, 200, dim);
    const HyperbolaCriterion criterion;
    // Warm up: first calls may lazily initialize observability state.
    bool sink = false;
    sink ^= criterion.Dominates(triples.a(0), triples.b(0), triples.q(0));

    const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
    for (size_t t = 0; t < triples.n; ++t) {
      sink ^= criterion.Dominates(triples.a(t), triples.b(t), triples.q(t));
    }
    const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "Hyperbola::Dominates allocated at dim " << dim << " (sink "
        << sink << ")";
  }
}

TEST(DominanceZeroAllocTest, CertifiedTier1DecideDoesNotAllocate) {
  for (size_t dim : {size_t{2}, size_t{10}, size_t{50}}) {
    const TripleSet triples(4300 + dim, 200, dim);
    const CertifiedDominance engine;
    // Warm up (lazy metric registration happens on first call).
    engine.Decide(triples.a(0), triples.b(0), triples.q(0));

    // Random scenes essentially always settle at tier 1; escalations (rare,
    // off the fast path) are allowed to allocate and are skipped here.
    uint64_t measured = 0;
    uint64_t alloc_violations = 0;
    for (size_t t = 0; t < triples.n; ++t) {
      CertifiedTier tier = CertifiedTier::kUnresolved;
      const uint64_t before =
          g_allocation_count.load(std::memory_order_relaxed);
      engine.Decide(triples.a(t), triples.b(t), triples.q(t), &tier);
      const uint64_t after =
          g_allocation_count.load(std::memory_order_relaxed);
      if (tier == CertifiedTier::kQuartic) {
        ++measured;
        if (after != before) ++alloc_violations;
      }
    }
    EXPECT_GT(measured, triples.n / 2) << "tier-1 fast path barely exercised";
    EXPECT_EQ(alloc_violations, 0u)
        << "certified tier-1 Decide allocated at dim " << dim;
  }
}

TEST(DominanceZeroAllocTest, NumericOracleDoesNotAllocate) {
  const TripleSet triples(4400, 50, 4);
  double sink = 0.0;
  sink += MinDistanceDifference(triples.a(0), triples.b(0), triples.q(0));

  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (size_t t = 0; t < triples.n; ++t) {
    sink += MinDistanceDifference(triples.a(t), triples.b(t), triples.q(t));
  }
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "MinDistanceDifference allocated (sink " << sink << ")";
}

}  // namespace
}  // namespace hyperdom

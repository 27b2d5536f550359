// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The columnar sphere arena (storage/sphere_store.h): slot stability,
// alignment, bit-exact round-trips between owned Hyperspheres and store
// rows, and the serialized blob format the index snapshots embed.

#include "storage/sphere_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace hyperdom {
namespace {

TEST(SphereStoreTest, AddResolveRoundTripsBitExactly) {
  SphereStore store(3);
  Rng rng(2500);
  std::vector<Hypersphere> originals;
  std::vector<uint32_t> slots;
  for (int i = 0; i < 200; ++i) {
    originals.push_back(test::RandomSphere(&rng, 3, 5.0));
    slots.push_back(store.Add(originals.back()));
  }
  ASSERT_EQ(store.size(), 200u);
  for (size_t i = 0; i < slots.size(); ++i) {
    const SphereView v = store.view(slots[i]);
    ASSERT_EQ(v.dim, 3u);
    EXPECT_EQ(v.radius, originals[i].radius());
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(v.center[d], originals[i].center()[d]) << "slot " << i;
    }
    // Materialize copies the row back into an owned sphere, bit-for-bit.
    EXPECT_TRUE(store.Materialize(slots[i]) == originals[i]);
  }
}

TEST(SphereStoreTest, ArenaIs64ByteAligned) {
  for (size_t dim : {size_t{1}, size_t{2}, size_t{7}, size_t{50}}) {
    SphereStore store(dim);
    Rng rng(2501);
    for (int i = 0; i < 33; ++i) store.Add(test::RandomSphere(&rng, dim, 1.0));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(store.center(0)) % 64, 0u)
        << "dim " << dim;
    // Rows are d-strided off the aligned base: consecutive slots are
    // contiguous.
    EXPECT_EQ(store.center(1), store.center(0) + dim);
  }
}

TEST(SphereStoreTest, SlotsStableAcrossGrowth) {
  SphereStore store(2);
  const uint32_t first = store.Add(Hypersphere({1.0, 2.0}, 0.5));
  // Force many reallocation cycles.
  Rng rng(2502);
  for (int i = 0; i < 5000; ++i) store.Add(test::RandomSphere(&rng, 2, 1.0));
  EXPECT_EQ(store.center(first)[0], 1.0);
  EXPECT_EQ(store.center(first)[1], 2.0);
  EXPECT_EQ(store.radius(first), 0.5);
}

TEST(SphereStoreTest, ReservePreventsViewInvalidation) {
  SphereStore store(2);
  store.Reserve(100);
  const uint32_t slot = store.Add(Hypersphere({3.0, 4.0}, 1.0));
  const double* base = store.center(slot);
  Rng rng(2503);
  for (int i = 0; i < 99; ++i) store.Add(test::RandomSphere(&rng, 2, 1.0));
  // No reallocation happened within the reserved capacity.
  EXPECT_EQ(store.center(slot), base);
}

// A row count whose arena byte size overflows size_t is refused with
// std::bad_alloc before anything is allocated, and the store stays usable.
TEST(SphereStoreTest, ReserveOverflowThrowsAndLeavesStoreUsable) {
  SphereStore store(4);
  const Hypersphere first({1.0, 2.0, 3.0, 4.0}, 0.5);
  store.Add(first);
  const size_t capacity = store.capacity();
  const size_t rows =
      std::numeric_limits<size_t>::max() / (4 * sizeof(double)) + 1;
  EXPECT_THROW(store.Reserve(rows), std::bad_alloc);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.capacity(), capacity);
  const Hypersphere second({5.0, 6.0, 7.0, 8.0}, 1.5);
  EXPECT_EQ(store.Add(second), 1u);
  EXPECT_TRUE(store.Materialize(0) == first);
  EXPECT_TRUE(store.Materialize(1) == second);
}

TEST(SphereStoreTest, DefaultConstructedAdoptsFirstDim) {
  SphereStore store;
  EXPECT_EQ(store.dim(), 0u);
  store.Add(Hypersphere({1.0, 2.0, 3.0, 4.0}, 0.1));
  EXPECT_EQ(store.dim(), 4u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SphereStoreTest, ResolveCarriesIdAndSlot) {
  SphereStore store(2);
  const uint32_t slot = store.Add(Hypersphere({1.0, 1.0}, 2.0));
  const EntryView e = store.Resolve(StoredEntry{slot, 77});
  EXPECT_EQ(e.id, 77u);
  EXPECT_EQ(e.slot, slot);
  EXPECT_EQ(e.sphere.radius, 2.0);
}

TEST(SphereStoreTest, CopyIsDeepMoveIsCheap) {
  SphereStore store(2);
  store.Add(Hypersphere({5.0, 6.0}, 1.0));
  SphereStore copy = store;
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_NE(copy.center(0), store.center(0));  // distinct arenas
  EXPECT_EQ(copy.center(0)[0], 5.0);

  const double* arena = store.center(0);
  SphereStore moved = std::move(store);
  EXPECT_EQ(moved.center(0), arena);  // arena adopted, not copied
  EXPECT_EQ(moved.size(), 1u);
}

TEST(SphereStoreTest, SerializationRoundTrip) {
  SphereStore store(3);
  Rng rng(2504);
  for (int i = 0; i < 50; ++i) store.Add(test::RandomSphere(&rng, 3, 4.0));

  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(store.SerializeTo(out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  SphereStore loaded;
  ASSERT_TRUE(SphereStore::DeserializeFrom(in, &loaded).ok());
  ASSERT_EQ(loaded.size(), store.size());
  ASSERT_EQ(loaded.dim(), store.dim());
  for (uint32_t s = 0; s < loaded.size(); ++s) {
    EXPECT_EQ(loaded.radius(s), store.radius(s));
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(loaded.center(s)[d], store.center(s)[d]);
    }
  }
}

TEST(SphereStoreTest, EmptyStoreSerializationRoundTrip) {
  SphereStore store;
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(store.SerializeTo(out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  SphereStore loaded;
  ASSERT_TRUE(SphereStore::DeserializeFrom(in, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(SphereStoreTest, DeserializeRejectsCorruption) {
  SphereStore store(2);
  store.Add(Hypersphere({1.0, 2.0}, 0.5));
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(store.SerializeTo(out).ok());
  const std::string pristine = out.str();

  // Truncation at every prefix.
  for (size_t keep = 0; keep < pristine.size(); keep += 5) {
    std::istringstream in(pristine.substr(0, keep), std::ios::binary);
    SphereStore loaded;
    EXPECT_FALSE(SphereStore::DeserializeFrom(in, &loaded).ok())
        << "kept " << keep;
  }

  // An absurd size field must be rejected before allocation.
  std::string huge = pristine;
  const uint64_t bogus = ~uint64_t{0};
  std::memcpy(huge.data() + 8, &bogus, sizeof(bogus));
  std::istringstream in(huge, std::ios::binary);
  SphereStore loaded;
  EXPECT_FALSE(SphereStore::DeserializeFrom(in, &loaded).ok());
}

TEST(SphereStoreTest, ClearKeepsDimAndCapacity) {
  SphereStore store(2);
  store.Reserve(10);
  store.Add(Hypersphere({1.0, 1.0}, 1.0));
  const double* base = store.center(0);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dim(), 2u);
  store.Add(Hypersphere({9.0, 9.0}, 2.0));
  EXPECT_EQ(store.center(0), base);  // capacity retained
  EXPECT_EQ(store.center(0)[0], 9.0);
}

}  // namespace
}  // namespace hyperdom

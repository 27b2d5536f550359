// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Partitioning and shard-build contract of src/shard/sharded_store.h:
// deterministic layouts, full coverage with global ids, a K=1 hash store
// whose single shard is the dataset in original order, one SS-tree per
// shard, and clean Status propagation from the shard/build fault site.

#include "shard/sharded_store.h"

#include <gtest/gtest.h>

#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "shard/partitioner.h"

namespace hyperdom {
namespace shard {
namespace {

std::vector<Hypersphere> MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Hypersphere> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point c(3);
    for (size_t d = 0; d < 3; ++d) c[d] = rng.Gaussian(0.0, 20.0);
    data.emplace_back(c, rng.Uniform(0.0, 3.0));
  }
  return data;
}

TEST(PartitionerTest, HashIsDeterministicAndInRange) {
  HashPartitioner p(4);
  const Hypersphere s(Point{1.0, 2.0, 3.0}, 0.5);
  for (uint64_t id = 0; id < 200; ++id) {
    const size_t j = p.Assign(s, id);
    EXPECT_LT(j, 4u);
    EXPECT_EQ(j, p.Assign(s, id));  // pure in id
  }
}

TEST(PartitionerTest, HashSpreadsAcrossShards) {
  HashPartitioner p(4);
  const Hypersphere s(Point{0.0, 0.0, 0.0}, 0.0);
  std::set<size_t> seen;
  for (uint64_t id = 0; id < 64; ++id) seen.insert(p.Assign(s, id));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionerTest, KMeansIsDeterministicInSeed) {
  const auto data = MakeData(300, 42);
  KMeansPartitioner a, b;
  ASSERT_TRUE(KMeansPartitioner::Fit(data, 4, 7, 8, &a).ok());
  ASSERT_TRUE(KMeansPartitioner::Fit(data, 4, 7, 8, &b).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(a.Assign(data[i], i), b.Assign(data[i], i)) << i;
  }
}

TEST(PartitionerTest, KMeansRejectsEmptyData) {
  KMeansPartitioner p;
  EXPECT_FALSE(KMeansPartitioner::Fit({}, 2, 1, 4, &p).ok());
}

TEST(ShardedStoreTest, PolicyNamesRoundTrip) {
  ShardPolicy policy = ShardPolicy::kKmeans;
  EXPECT_TRUE(ParseShardPolicy("hash", &policy));
  EXPECT_EQ(policy, ShardPolicy::kHash);
  EXPECT_TRUE(ParseShardPolicy("kmeans", &policy));
  EXPECT_EQ(policy, ShardPolicy::kKmeans);
  EXPECT_FALSE(ParseShardPolicy("round-robin", &policy));
  EXPECT_EQ(ShardPolicyName(ShardPolicy::kHash), "hash");
  EXPECT_EQ(ShardPolicyName(ShardPolicy::kKmeans), "kmeans");
}

TEST(ShardedStoreTest, RejectsZeroShards) {
  ShardingOptions options;
  options.shards = 0;
  ShardedStore store;
  EXPECT_FALSE(ShardedStore::Build(MakeData(10, 1), options, &store).ok());
}

TEST(ShardedStoreTest, CoversEveryEntryExactlyOnceWithGlobalIds) {
  const auto data = MakeData(500, 7);
  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kKmeans}) {
    ShardingOptions options;
    options.shards = 4;
    options.policy = policy;
    ShardedStore store;
    ASSERT_TRUE(ShardedStore::Build(data, options, &store).ok());
    ASSERT_EQ(store.shards(), 4u);
    EXPECT_EQ(store.size(), data.size());
    EXPECT_EQ(store.dim(), 3u);

    std::set<uint64_t> seen;
    for (size_t j = 0; j < store.shards(); ++j) {
      const Shard& s = store.shard(j);
      ASSERT_EQ(s.spheres.size(), s.ids.size());
      for (size_t i = 0; i < s.ids.size(); ++i) {
        const uint64_t id = s.ids[i];
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
        ASSERT_LT(id, data.size());
        // The slice holds the entry the global id names.
        EXPECT_EQ(s.spheres[i].center(), data[id].center());
        EXPECT_EQ(s.spheres[i].radius(), data[id].radius());
      }
    }
    EXPECT_EQ(seen.size(), data.size());
  }
}

TEST(ShardedStoreTest, SingleHashShardPreservesDatasetOrder) {
  const auto data = MakeData(100, 3);
  ShardingOptions options;  // shards = 1, hash
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, options, &store).ok());
  ASSERT_EQ(store.shards(), 1u);
  const Shard& s = store.shard(0);
  ASSERT_EQ(s.spheres.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(s.ids[i], i);
    EXPECT_EQ(s.spheres[i].center(), data[i].center());
  }
}

TEST(ShardedStoreTest, BuildsEveryIndexKind) {
  // Every shard is an SS-tree over exactly its slice.
  const auto data = MakeData(200, 11);
  ShardingOptions options;
  options.shards = 3;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, options, &store).ok());
  size_t total = 0;
  for (size_t j = 0; j < store.shards(); ++j) {
    const Shard& s = store.shard(j);
    ASSERT_NE(s.ss, nullptr);
    EXPECT_EQ(s.ss->size(), s.size());
    EXPECT_TRUE(s.ss->CheckInvariants().ok());
    total += s.size();
  }
  EXPECT_EQ(total, data.size());
}

TEST(ShardedStoreTest, EmptyDatasetBuildsEmptyShards) {
  ShardingOptions options;
  options.shards = 4;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build({}, options, &store).ok());
  EXPECT_EQ(store.shards(), 4u);
  EXPECT_EQ(store.size(), 0u);
  for (size_t j = 0; j < store.shards(); ++j) {
    EXPECT_EQ(store.shard(j).size(), 0u);
    EXPECT_EQ(store.shard(j).ss, nullptr);
  }
}

TEST(ShardedStoreTest, RejectsMixedDimensions) {
  std::vector<Hypersphere> data = {Hypersphere(Point{0.0, 0.0}, 1.0),
                                   Hypersphere(Point{0.0, 0.0, 0.0}, 1.0)};
  ShardingOptions options;
  options.shards = 2;
  ShardedStore store;
  EXPECT_FALSE(ShardedStore::Build(data, options, &store).ok());
}

#if defined(HYPERDOM_FAULT_INJECTION_ENABLED)
TEST(ShardedStoreTest, BuildFaultPropagatesPerShard) {
  const auto data = MakeData(100, 13);
  ShardingOptions options;
  options.shards = 4;
  // shard/build fires once per shard; arming the nth execution fails the
  // build while shards 1..n-1 already built — the error must surface
  // regardless of which shard it lands on.
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    FaultRegistry::Instance().ArmSite("shard/build", nth);
    ShardedStore store;
    const Status status = ShardedStore::Build(data, options, &store);
    EXPECT_FALSE(status.ok()) << "nth=" << nth;
    EXPECT_EQ(FaultRegistry::Instance().injected(), 1u);
  }
  FaultRegistry::Instance().Reset();
  // Disarmed, the same build succeeds.
  ShardedStore store;
  EXPECT_TRUE(ShardedStore::Build(data, options, &store).ok());
}
#endif  // HYPERDOM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace shard
}  // namespace hyperdom

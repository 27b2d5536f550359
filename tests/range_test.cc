// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/range.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "data/generator.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "query/mut_query.h"
#include "shard/sharded_query.h"
#include "test_util.h"

namespace hyperdom {
namespace {

std::set<uint64_t> Ids(const std::vector<DataEntry>& entries) {
  std::set<uint64_t> ids;
  for (const auto& e : entries) ids.insert(e.id);
  return ids;
}

bool StrictlyAscendingIds(const std::vector<DataEntry>& entries) {
  return std::adjacent_find(entries.begin(), entries.end(),
                            [](const DataEntry& a, const DataEntry& b) {
                              return a.id >= b.id;
                            }) == entries.end();
}

// One seeded dataset behind three stores: a plain SS-tree; a mutable tree
// whose every 10th row arrives as a delta insert, with every 17th base id
// removed; and 4 hash shards.
struct RangeStores {
  std::vector<Hypersphere> data;
  SsTree tree{4};
  MutableSsTree mutable_tree{4};
  shard::ShardedStore shards;
};

void BuildRangeStores(uint64_t seed, RangeStores* stores) {
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = seed;
  stores->data = GenerateSynthetic(spec);
  const auto& data = stores->data;
  ASSERT_TRUE(stores->tree.BulkLoad(data).ok());
  std::vector<Hypersphere> base;
  std::vector<uint64_t> base_ids;
  for (uint64_t i = 0; i < data.size(); ++i) {
    if (i % 10 == 9) continue;
    base.push_back(data[i]);
    base_ids.push_back(i);
  }
  ASSERT_TRUE(stores->mutable_tree.Build(base, base_ids).ok());
  for (uint64_t i = 9; i < data.size(); i += 10) {
    ASSERT_TRUE(stores->mutable_tree.Insert(data[i], i).ok());
  }
  for (size_t b = 0; b < base_ids.size(); b += 17) {
    ASSERT_TRUE(stores->mutable_tree.Remove(base_ids[b]).ok());
  }
  shard::ShardingOptions sharding;
  sharding.shards = 4;
  ASSERT_TRUE(shard::ShardedStore::Build(data, sharding, &stores->shards).ok());
}

TEST(RangeLinearScanTest, HandComputableScene) {
  const std::vector<Hypersphere> data = {
      Hypersphere({2.0, 0.0}, 1.0),   // 0: maxdist 3.5, certain
      Hypersphere({5.0, 0.0}, 1.0),   // 1: mindist 3.5, maxdist 6.5: possible
      Hypersphere({20.0, 0.0}, 1.0),  // 2: mindist 18.5: out
  };
  const Hypersphere sq({0.0, 0.0}, 0.5);
  const RangeResult result = RangeLinearScan(data, sq, 5.0);
  EXPECT_EQ(Ids(result.certain), (std::set<uint64_t>{0}));
  EXPECT_EQ(Ids(result.possible), (std::set<uint64_t>{0, 1}));
}

TEST(RangeLinearScanTest, CertainSubsetOfPossible) {
  SyntheticSpec spec;
  spec.n = 1000;
  spec.dim = 3;
  spec.seed = 3200;
  const auto data = GenerateSynthetic(spec);
  const RangeResult result = RangeLinearScan(data, data[0], 40.0);
  const auto certain = Ids(result.certain);
  const auto possible = Ids(result.possible);
  for (uint64_t id : certain) EXPECT_TRUE(possible.count(id));
  EXPECT_LE(certain.size(), possible.size());
}

TEST(RangeSearchTest, MatchesLinearScan) {
  SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 3201;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  for (double range : {0.0, 10.0, 50.0, 200.0}) {
    for (const auto& sq : MakeKnnQueries(data, 5, 3202)) {
      const RangeResult from_tree = RangeSearch(tree, sq, range);
      const RangeResult from_scan = RangeLinearScan(data, sq, range);
      EXPECT_EQ(Ids(from_tree.certain), Ids(from_scan.certain))
          << "range " << range;
      EXPECT_EQ(Ids(from_tree.possible), Ids(from_scan.possible))
          << "range " << range;
    }
  }
}

TEST(RangeSearchTest, AnswersComeInAscendingIdOrder) {
  RangeStores stores;
  ASSERT_NO_FATAL_FAILURE(BuildRangeStores(3205, &stores));
  for (const auto& sq : MakeKnnQueries(stores.data, 20, 3206)) {
    const RangeResult plain = RangeSearch(stores.tree, sq, 40.0);
    EXPECT_TRUE(StrictlyAscendingIds(plain.certain));
    EXPECT_TRUE(StrictlyAscendingIds(plain.possible));
    const RangeResult overlaid =
        MutableRange(stores.mutable_tree, sq, 40.0).result;
    EXPECT_TRUE(StrictlyAscendingIds(overlaid.certain));
    EXPECT_TRUE(StrictlyAscendingIds(overlaid.possible));
  }
}

// Pins the range query's work on the shared DF driver
// (query/knn_traversal.h): per store and radius, the summed traversal
// counters over 20 queries and a digest of both answer sets, certain then
// possible, in the ascending id order RangeSearch returns. The radius is a
// fixed prune threshold, so the visited set does not depend on child
// order; a change to a node bound, or to the trees the bulk loader builds
// for the overlay's base and the shards, moves these counts.
TEST(RangeSearchTest, RangeWorkIsPinned) {
  RangeStores stores;
  ASSERT_NO_FATAL_FAILURE(BuildRangeStores(3207, &stores));
  const auto queries = MakeKnnQueries(stores.data, 20, 3208);
  auto search = [&](std::string_view store, const Hypersphere& sq,
                    double range) {
    if (store == "ss") return RangeSearch(stores.tree, sq, range);
    if (store == "overlay") {
      return MutableRange(stores.mutable_tree, sq, range).result;
    }
    Result<RangeResult> sharded = shard::ShardedRange(stores.shards, sq, range);
    EXPECT_TRUE(sharded.ok());
    return sharded.ok() ? std::move(*sharded) : RangeResult{};
  };

  struct Pin {
    std::string_view store;
    double range;
    uint64_t nodes_visited;
    uint64_t nodes_pruned;
    uint64_t entries_accessed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"ss", 0.0, 899, 4978, 10187, 0x6de1f3bccef46636ULL},
      {"ss", 10.0, 1510, 4512, 20884, 0x39cb022cf82d286dULL},
      {"ss", 40.0, 4503, 1657, 72401, 0xf529fd121c414433ULL},
      {"ss", 120.0, 6160, 0, 100000, 0xf31081c4b72d5121ULL},
      {"overlay", 0.0, 1106, 3562, 25947, 0xf7940311ef24e128ULL},
      {"overlay", 10.0, 1740, 3023, 37622, 0xc431f83292fde95cULL},
      {"overlay", 40.0, 4013, 807, 79714, 0x8790d64be8539899ULL},
      {"overlay", 120.0, 4820, 0, 94700, 0x1f087a027fb26185ULL},
      {"shards", 0.0, 1964, 3540, 30640, 0x6de1f3bccef46636ULL},
      {"shards", 10.0, 2837, 2683, 47659, 0x39cb022cf82d286dULL},
      {"shards", 40.0, 5033, 487, 90499, 0xf529fd121c414433ULL},
      {"shards", 120.0, 5520, 0, 100000, 0xf31081c4b72d5121ULL},
  };
  for (const Pin& pin : pins) {
    RangeStats sum;
    uint64_t digest = test::kDigestSeed;
    for (const auto& sq : queries) {
      const RangeResult result = search(pin.store, sq, pin.range);
      EXPECT_EQ(result.completeness, Completeness::kExact);
      sum += result.stats;
      digest = test::DigestEntries(digest, result.certain);
      digest = test::DigestEntries(digest, result.possible);
    }
    const std::string where =
        std::string(pin.store) + " range " + std::to_string(pin.range);
    EXPECT_EQ(sum.nodes_visited, pin.nodes_visited) << where;
    EXPECT_EQ(sum.nodes_pruned, pin.nodes_pruned) << where;
    EXPECT_EQ(sum.entries_accessed, pin.entries_accessed) << where;
    EXPECT_EQ(sum.nodes_deadline_skipped, 0u) << where;
    EXPECT_EQ(digest, pin.digest) << where << std::hex << " digest 0x"
                                  << digest;
  }
}

TEST(RangeSearchTest, EmptyTree) {
  SsTree tree(2);
  const RangeResult result =
      RangeSearch(tree, Hypersphere({0.0, 0.0}, 1.0), 10.0);
  EXPECT_TRUE(result.certain.empty());
  EXPECT_TRUE(result.possible.empty());
}

TEST(RangeSearchTest, ZeroRangeStillFindsOverlapping) {
  // MinDist == 0 for an object overlapping the query region.
  SsTree tree(2);
  ASSERT_TRUE(tree.Insert(Hypersphere({1.0, 0.0}, 2.0), 0).ok());
  ASSERT_TRUE(tree.Insert(Hypersphere({50.0, 0.0}, 2.0), 1).ok());
  const RangeResult result =
      RangeSearch(tree, Hypersphere({0.0, 0.0}, 1.0), 0.0);
  EXPECT_EQ(Ids(result.possible), (std::set<uint64_t>{0}));
  EXPECT_TRUE(result.certain.empty());
}

TEST(RangeSearchTest, PrunesFarSubtrees) {
  SyntheticSpec spec;
  spec.n = 10'000;
  spec.dim = 3;
  spec.radius_mean = 2.0;
  spec.seed = 3203;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  const RangeResult result = RangeSearch(tree, data[0], 10.0);
  EXPECT_GT(result.stats.nodes_pruned, 0u);
  EXPECT_LT(result.stats.entries_accessed, data.size());
}

TEST(RangeSearchTest, GrowingRangeIsMonotone) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 3;
  spec.seed = 3204;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  size_t prev_possible = 0, prev_certain = 0;
  for (double range : {5.0, 20.0, 60.0, 150.0, 400.0}) {
    const RangeResult result = RangeSearch(tree, data[42], range);
    EXPECT_GE(result.possible.size(), prev_possible);
    EXPECT_GE(result.certain.size(), prev_certain);
    prev_possible = result.possible.size();
    prev_certain = result.certain.size();
  }
  // A range covering the whole space returns everything, certainly.
  const RangeResult all = RangeSearch(tree, data[42], 1e7);
  EXPECT_EQ(all.certain.size(), data.size());
  EXPECT_EQ(all.possible.size(), data.size());
}

}  // namespace
}  // namespace hyperdom

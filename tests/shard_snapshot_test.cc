// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shard-aware snapshot persistence (shard/shard_snapshot.h): byte-exact
// generation round trips, per-shard corruption fallback (only the bad
// shard rebuilds, and the restored store still answers bit-identically),
// manifest/option mismatch rejection, generation pruning, and torn-write
// behavior under the snapshot/rotate fault site.

#include "shard/shard_snapshot.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "shard/sharded_query.h"

namespace hyperdom {
namespace shard {
namespace {

constexpr size_t kDim = 3;

std::vector<Hypersphere> MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Hypersphere> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point c(kDim);
    for (size_t d = 0; d < kDim; ++d) c[d] = rng.Gaussian(0.0, 20.0);
    data.emplace_back(c, rng.Uniform(0.0, 3.0));
  }
  return data;
}

bool SameBits(const Hypersphere& a, const Hypersphere& b) {
  if (a.dim() != b.dim()) return false;
  const double ra = a.radius();
  const double rb = b.radius();
  if (std::memcmp(&ra, &rb, sizeof(double)) != 0) return false;
  return std::memcmp(a.center().data(), b.center().data(),
                     a.dim() * sizeof(double)) == 0;
}

// The restored store must answer exactly like the original — same ids,
// same order, same coordinate bits.
void ExpectSameAnswers(const ShardedStore& a, const ShardedStore& b) {
  HyperbolaCriterion criterion;
  KnnOptions options;
  options.k = 6;
  Rng rng(777);
  for (int q = 0; q < 4; ++q) {
    Point c(kDim);
    for (size_t d = 0; d < kDim; ++d) c[d] = rng.Gaussian(0.0, 10.0);
    const Hypersphere sq(c, 1.0);
    Result<KnnResult> ra = ShardedKnn(a, sq, criterion, options);
    Result<KnnResult> rb = ShardedKnn(b, sq, criterion, options);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->answers.size(), rb->answers.size()) << "query " << q;
    for (size_t i = 0; i < ra->answers.size(); ++i) {
      EXPECT_EQ(ra->answers[i].id, rb->answers[i].id) << "query " << q;
      EXPECT_TRUE(SameBits(ra->answers[i].sphere, rb->answers[i].sphere))
          << "query " << q << " position " << i;
    }
  }
}

// A fresh, empty snapshot directory per test.
class ShardSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "hyperdom_shardsnap_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Clear();
    ::mkdir(dir_.c_str(), 0755);
  }

  void TearDown() override { Clear(); }

  void Clear() {
    if (auto entries = ListDirectory(dir_); entries.ok()) {
      for (const auto& name : *entries) {
        std::remove((dir_ + "/" + name).c_str());
      }
    }
    ::rmdir(dir_.c_str());
  }

  std::set<std::string> Files() const {
    std::set<std::string> files;
    if (auto entries = ListDirectory(dir_); entries.ok()) {
      files.insert(entries->begin(), entries->end());
    }
    return files;
  }

  ShardedStore BuildStore(const std::vector<Hypersphere>& data,
                          const ShardingOptions& options) {
    ShardedStore store;
    EXPECT_TRUE(ShardedStore::Build(data, options, &store).ok());
    return store;
  }

  std::string dir_;
};

TEST_F(ShardSnapshotTest, RoundTripsByteExactly) {
  const auto data = MakeData(300, 61);
  ShardingOptions options;
  options.shards = 4;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);

  uint64_t seq = 0;
  ASSERT_TRUE(set.Persist(store, &seq).ok());
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(set.CurrentSeq(), 1u);

  ShardedStore loaded;
  std::vector<SnapshotLoadOutcome> outcomes;
  uint64_t loaded_seq = 0;
  ASSERT_TRUE(
      set.LoadLatest(data, options, &loaded, &outcomes, &loaded_seq).ok());
  EXPECT_EQ(loaded_seq, 1u);
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t j = 0; j < outcomes.size(); ++j) {
    EXPECT_EQ(outcomes[j], SnapshotLoadOutcome::kLoaded) << "shard " << j;
    EXPECT_EQ(loaded.shard(j).size(), store.shard(j).size()) << "shard " << j;
  }
  ExpectSameAnswers(store, loaded);

  // Byte-exactness: persisting the loaded store writes generation 2 files
  // identical byte-for-byte to generation 1's — the serialization is a
  // fixed point of load.
  ASSERT_TRUE(set.Persist(loaded, &seq).ok());
  EXPECT_EQ(seq, 2u);
  for (size_t j = 0; j < store.shards(); ++j) {
    if (store.shard(j).ss == nullptr) continue;
    Result<std::string> gen1 = ReadFileToString(set.ShardPath(j, 1));
    Result<std::string> gen2 = ReadFileToString(set.ShardPath(j, 2));
    ASSERT_TRUE(gen1.ok()) << "shard " << j;
    ASSERT_TRUE(gen2.ok()) << "shard " << j;
    EXPECT_EQ(gen1.ValueOrDie(), gen2.ValueOrDie())
        << "shard " << j << " generation files differ";
  }
}

TEST_F(ShardSnapshotTest, CorruptShardRebuildsOnlyThatShard) {
  const auto data = MakeData(300, 62);
  ShardingOptions options;
  options.shards = 4;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  ASSERT_TRUE(set.Persist(store, nullptr).ok());

  // Flip bytes inside shard 2's generation file: its checksum fails and
  // only that shard falls back to an in-memory rebuild.
  {
    std::fstream f(set.ShardPath(2, 1),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A};
    f.write(garbage, sizeof(garbage));
  }

  ShardedStore loaded;
  std::vector<SnapshotLoadOutcome> outcomes;
  ASSERT_TRUE(set.LoadLatest(data, options, &loaded, &outcomes, nullptr).ok());
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t j = 0; j < outcomes.size(); ++j) {
    EXPECT_EQ(outcomes[j], j == 2 ? SnapshotLoadOutcome::kRebuilt
                                  : SnapshotLoadOutcome::kLoaded)
        << "shard " << j;
  }
  // The rebuilt shard is equivalent: the restored store still answers
  // bit-identically to the original.
  ExpectSameAnswers(store, loaded);
}

TEST_F(ShardSnapshotTest, MissingShardFileRebuildsOnlyThatShard) {
  const auto data = MakeData(200, 63);
  ShardingOptions options;
  options.shards = 3;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  ASSERT_TRUE(set.Persist(store, nullptr).ok());
  ASSERT_TRUE(RemoveFile(set.ShardPath(1, 1)).ok());

  ShardedStore loaded;
  std::vector<SnapshotLoadOutcome> outcomes;
  ASSERT_TRUE(set.LoadLatest(data, options, &loaded, &outcomes, nullptr).ok());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], SnapshotLoadOutcome::kLoaded);
  EXPECT_EQ(outcomes[1], SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(outcomes[2], SnapshotLoadOutcome::kLoaded);
  ExpectSameAnswers(store, loaded);
}

TEST_F(ShardSnapshotTest, EmptyShardsPersistAndLoadWithoutFiles) {
  // Two entries over four shards: at least two shards are empty; they
  // write no generation file and load cleanly all the same.
  const auto data = MakeData(2, 64);
  ShardingOptions options;
  options.shards = 4;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  ASSERT_TRUE(set.Persist(store, nullptr).ok());

  ShardedStore loaded;
  std::vector<SnapshotLoadOutcome> outcomes;
  ASSERT_TRUE(set.LoadLatest(data, options, &loaded, &outcomes, nullptr).ok());
  EXPECT_EQ(loaded.size(), data.size());
  for (size_t j = 0; j < loaded.shards(); ++j) {
    EXPECT_EQ(loaded.shard(j).size(), store.shard(j).size()) << "shard " << j;
    EXPECT_EQ(outcomes[j], SnapshotLoadOutcome::kLoaded) << "shard " << j;
  }
}

TEST_F(ShardSnapshotTest, EmptyDirectoryIsNotFound) {
  ShardedSnapshotSet set(dir_);
  EXPECT_EQ(set.CurrentSeq(), 0u);
  ShardedStore loaded;
  const Status status =
      set.LoadLatest(MakeData(10, 1), ShardingOptions{}, &loaded, nullptr,
                     nullptr);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ShardSnapshotTest, MismatchedOptionsAreRejected) {
  const auto data = MakeData(100, 65);
  ShardingOptions options;
  options.shards = 4;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  ASSERT_TRUE(set.Persist(store, nullptr).ok());

  ShardedStore loaded;
  // Different shard count: the generation files hold the wrong slices.
  ShardingOptions wrong_count = options;
  wrong_count.shards = 2;
  EXPECT_EQ(
      set.LoadLatest(data, wrong_count, &loaded, nullptr, nullptr).code(),
      StatusCode::kInvalidArgument);
  // Different policy: same story.
  ShardingOptions wrong_policy = options;
  wrong_policy.policy = ShardPolicy::kKmeans;
  EXPECT_EQ(
      set.LoadLatest(data, wrong_policy, &loaded, nullptr, nullptr).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ShardSnapshotTest, PruneKeepsOnlyTheLastTwoGenerations) {
  const auto data = MakeData(120, 67);
  ShardingOptions options;
  options.shards = 2;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(set.Persist(store, nullptr).ok());
  }
  EXPECT_EQ(set.CurrentSeq(), 4u);
  const std::set<std::string> files = Files();
  EXPECT_EQ(files.count("SHARDS"), 1u);
  for (const std::string& name : files) {
    if (name == "SHARDS") continue;
    // Only generations 3 and 4 survive.
    EXPECT_TRUE(name.find(".3.hdsp") != std::string::npos ||
                name.find(".4.hdsp") != std::string::npos)
        << "stale file " << name;
  }
}

#if defined(HYPERDOM_FAULT_INJECTION_ENABLED)

struct RegistryGuard {
  ~RegistryGuard() { FaultRegistry::Instance().Reset(); }
};

// A torn rotation (fault in the window between writing the new
// generation files and swinging the manifest) keeps the previous
// generation serving and leaves no debris — no orphan generation files,
// no .tmp remnants.
TEST_F(ShardSnapshotTest, TornPersistKeepsLastGoodAndLeavesNoDebris) {
  RegistryGuard guard;
  const auto data = MakeData(150, 68);
  ShardingOptions options;
  options.shards = 3;
  const ShardedStore store = BuildStore(data, options);
  ShardedSnapshotSet set(dir_);
  ASSERT_TRUE(set.Persist(store, nullptr).ok());
  const std::set<std::string> before = Files();

  FaultRegistry::Instance().ArmSite("snapshot/rotate", 1);
  const Status torn = set.Persist(store, nullptr);
  FaultRegistry::Instance().Reset();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(Files(), before);
  EXPECT_EQ(set.CurrentSeq(), 1u);

  ShardedStore loaded;
  std::vector<SnapshotLoadOutcome> outcomes;
  uint64_t seq = 0;
  ASSERT_TRUE(set.LoadLatest(data, options, &loaded, &outcomes, &seq).ok());
  EXPECT_EQ(seq, 1u);
  ExpectSameAnswers(store, loaded);

  // The next rotation heals and publishes generation 2.
  ASSERT_TRUE(set.Persist(store, &seq).ok());
  EXPECT_EQ(seq, 2u);
}

#endif  // HYPERDOM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace shard
}  // namespace hyperdom

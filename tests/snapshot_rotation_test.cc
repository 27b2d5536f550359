// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe snapshot rotation (index/rotation.h): generation/CURRENT
// bookkeeping, pruning, fallback loading past a corrupt manifest or
// generation, and the single-shot fault sweep over "snapshot/rotate"
// proving a torn rotation keeps the last good generation serving and
// leaves no partial files behind.

#include "index/rotation.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "data/generator.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> RotationData(uint64_t seed, size_t n = 120) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 3;
  spec.radius_mean = 6.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

// A fresh, empty rotation directory per test.
class SnapshotRotationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "hyperdom_rot_" +
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

  std::string dir_;
};

TEST_F(SnapshotRotationTest, PersistPublishesSequentialGenerations) {
  const auto data = RotationData(9101);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);

  uint64_t seq = 0;
  ASSERT_TRUE(rotator.Persist(tree, &seq).ok());
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(rotator.CurrentSeq(), 1u);
  ASSERT_TRUE(rotator.Persist(tree, &seq).ok());
  EXPECT_EQ(seq, 2u);

  SsTree loaded(1);
  uint64_t loaded_seq = 0;
  ASSERT_TRUE(rotator.LoadLatest(&loaded, &loaded_seq).ok());
  EXPECT_EQ(loaded_seq, 2u);
  EXPECT_EQ(loaded.size(), data.size());
}

TEST_F(SnapshotRotationTest, PruneKeepsOnlyTheLastTwoGenerations) {
  const auto data = RotationData(9102, 40);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rotator.Persist(tree).ok());
  }
  EXPECT_EQ(Files(),
            (std::set<std::string>{"CURRENT", "store.4.hdsp",
                                   "store.5.hdsp"}));
}

TEST_F(SnapshotRotationTest, MissingManifestFallsBackToNewestGeneration) {
  const auto data = RotationData(9103);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);
  ASSERT_TRUE(rotator.Persist(tree).ok());
  ASSERT_TRUE(rotator.Persist(tree).ok());
  ASSERT_TRUE(RemoveFile(dir_ + "/CURRENT").ok());

  SsTree loaded(1);
  uint64_t seq = 0;
  ASSERT_TRUE(rotator.LoadLatest(&loaded, &seq).ok());
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(loaded.size(), data.size());
}

TEST_F(SnapshotRotationTest, CorruptNamedGenerationFallsBackToPredecessor) {
  const auto data = RotationData(9104);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);
  ASSERT_TRUE(rotator.Persist(tree).ok());
  ASSERT_TRUE(rotator.Persist(tree).ok());

  // Flip bytes in the generation CURRENT names: its checksum now fails
  // and LoadLatest must quietly serve generation 1.
  {
    std::fstream f(dir_ + "/store.2.hdsp",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A};
    f.write(garbage, sizeof(garbage));
  }
  SsTree loaded(1);
  uint64_t seq = 0;
  ASSERT_TRUE(rotator.LoadLatest(&loaded, &seq).ok());
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(loaded.size(), data.size());
}

TEST_F(SnapshotRotationTest, EmptyDirectoryIsNotFound) {
  SnapshotRotator rotator(dir_);
  SsTree loaded(1);
  EXPECT_EQ(rotator.LoadLatest(&loaded).code(), StatusCode::kNotFound);
  EXPECT_EQ(rotator.CurrentSeq(), 0u);
}

struct RegistryGuard {
  ~RegistryGuard() { FaultRegistry::Instance().Reset(); }
};

// The satellite acceptance test: a single-shot fault on snapshot/rotate
// (the crash window between writing generation N+1 and swinging CURRENT)
// must (a) fail the Persist with a Status naming the site, (b) keep the
// previous generation serving via CURRENT, and (c) leave the directory
// byte-for-byte as it was — no orphan generation, no .tmp debris.
TEST_F(SnapshotRotationTest, TornRotationKeepsLastGoodAndLeavesNoDebris) {
  RegistryGuard guard;
  const auto data = RotationData(9105);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);
  ASSERT_TRUE(rotator.Persist(tree).ok());
  const std::set<std::string> before = Files();
  ASSERT_EQ(before.count("CURRENT"), 1u);

  FaultRegistry::Instance().ArmSite("snapshot/rotate", 1);
  const Status torn = rotator.Persist(tree);
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.message().find("snapshot/rotate"), std::string::npos)
      << torn.ToString();

  // Same directory contents as before the failed rotation.
  EXPECT_EQ(Files(), before);
  EXPECT_EQ(rotator.CurrentSeq(), 1u);
  SsTree loaded(1);
  uint64_t seq = 0;
  ASSERT_TRUE(rotator.LoadLatest(&loaded, &seq).ok());
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(loaded.size(), data.size());

  // And the next rotation heals: it publishes generation 2 normally.
  ASSERT_TRUE(rotator.Persist(tree, &seq).ok());
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(rotator.CurrentSeq(), 2u);
}

// Sweep every single-shot fault through the full Persist path (snapshot
// write sites fire inside SaveSnapshot too): whatever fails, the
// previous generation keeps serving and no .tmp files survive.
TEST_F(SnapshotRotationTest, AnyPersistFaultKeepsServingWithoutTmpFiles) {
  RegistryGuard guard;
  const auto data = RotationData(9106, 60);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  SnapshotRotator rotator(dir_);
  ASSERT_TRUE(rotator.Persist(tree).ok());

  for (std::string_view site :
       {"snapshot/rotate", "snapshot/open_write", "snapshot/write",
        "snapshot/rename"}) {
    const auto& sites = AllFaultSites();
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      continue;  // site catalogue differs; the rotate site always exists
    }
    FaultRegistry::Instance().ArmSite(site, 1);
    const Status torn = rotator.Persist(tree);
    FaultRegistry::Instance().Reset();
    ASSERT_FALSE(torn.ok()) << site;
    EXPECT_EQ(rotator.CurrentSeq(), 1u) << site;
    SsTree loaded(1);
    ASSERT_TRUE(rotator.LoadLatest(&loaded).ok()) << site;
    EXPECT_EQ(loaded.size(), data.size()) << site;
    for (const auto& name : Files()) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos)
          << site << " left behind " << name;
    }
  }
}

}  // namespace
}  // namespace hyperdom

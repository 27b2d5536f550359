// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe snapshot envelope (index/snapshot.h): round-trips must
// preserve query answers exactly, and any corruption — bit flips,
// truncation, a wrong kind — or a retired or unknown format version must
// be detected before the tree structure is trusted, falling back to a
// rebuild when the raw data is available.

#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "query/index_knn.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> TestData(uint64_t seed, size_t n = 600) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 3;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "hyperdom_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

TEST(Crc32Test, MatchesIeeeCheckVector) {
  // The canonical CRC-32/IEEE check: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("", 0), 0x00000000u);
  // Streaming in pieces must match one-shot.
  Crc32 crc;
  crc.Update("1234", 4);
  crc.Update("56789", 5);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(SnapshotTest, SsTreeRoundTripPreservesQueryAnswers) {
  const auto data = TestData(901);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("ss_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  SsTree loaded(1);
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.dim(), tree.dim());

  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  for (const auto& sq : MakeKnnQueries(data, 8, 902)) {
    EXPECT_EQ(Ids(searcher.Search(loaded, sq)), Ids(searcher.Search(tree, sq)));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, VpTreeRoundTripPreservesQueryAnswers) {
  const auto data = TestData(903);
  VpTree tree;
  ASSERT_TRUE(tree.Build(data).ok());
  const std::string path = TestPath("vp_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  VpTree loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.dim(), tree.dim());

  HyperbolaCriterion exact;
  for (const auto& sq : MakeKnnQueries(data, 8, 904)) {
    EXPECT_EQ(Ids(VpTreeKnnSearch(loaded, sq, exact, KnnOptions{})),
              Ids(VpTreeKnnSearch(tree, sq, exact, KnnOptions{})));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, VerifyReportsEnvelopeFacts) {
  const auto data = TestData(905, 200);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("verify.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  auto info = VerifySnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->kind, SnapshotKind::kSsTree);
  EXPECT_EQ(info->version, 2u);
  EXPECT_TRUE(info->crc_ok);
  EXPECT_GT(info->payload_size, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveLeavesNoTempFile) {
  const auto data = TestData(906, 100);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("atomic.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotTest, BitFlipsAreRejectedNotTrusted) {
  const auto data = TestData(907, 150);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("bitflip.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string pristine = ReadFile(path);
  ASSERT_FALSE(pristine.empty());

  // Flip one bit at every header byte and at a stride through the payload;
  // every variant must fail with a clean Status and leave `loaded` alone.
  std::vector<size_t> positions;
  for (size_t i = 0; i < 24 && i < pristine.size(); ++i) positions.push_back(i);
  for (size_t i = 24; i < pristine.size(); i += 37) positions.push_back(i);
  for (size_t pos : positions) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFile(path, corrupt);
    SsTree loaded(1);
    const Status status = LoadSnapshot(path, &loaded);
    EXPECT_FALSE(status.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.size(), 0u) << "failed load must not mutate the tree";
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationIsRejected) {
  const auto data = TestData(908, 150);
  VpTree tree;
  ASSERT_TRUE(tree.Build(data).ok());
  const std::string path = TestPath("truncate.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string pristine = ReadFile(path);

  for (size_t keep : {size_t{0}, size_t{3}, size_t{12}, size_t{23},
                      pristine.size() / 2, pristine.size() - 1}) {
    WriteFile(path, pristine.substr(0, keep));
    VpTree loaded;
    EXPECT_FALSE(LoadSnapshot(path, &loaded).ok()) << "kept " << keep;
    EXPECT_EQ(loaded.size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, KindMismatchIsRejected) {
  const auto data = TestData(909, 100);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("kind.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  VpTree wrong;
  const Status status = LoadSnapshot(path, &wrong);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(wrong.size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadOrRebuildFallsBackOnCorruption) {
  const auto data = TestData(910, 200);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("rebuild.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());

  // Corrupt a payload byte: checksum catches it, rebuild takes over.
  std::string corrupt = ReadFile(path);
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  WriteFile(path, corrupt);

  SsTree recovered(1);
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  Status load_error;
  ASSERT_TRUE(
      LoadSnapshotOrRebuild(path, data, &recovered, &outcome, &load_error)
          .ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_FALSE(load_error.ok());
  EXPECT_EQ(recovered.size(), data.size());

  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  for (const auto& sq : MakeKnnQueries(data, 5, 911)) {
    EXPECT_EQ(Ids(searcher.Search(recovered, sq)),
              Ids(searcher.Search(tree, sq)));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadOrRebuildFallsBackOnMissingFile) {
  const auto data = TestData(912, 120);
  const std::string path = TestPath("missing.snap");
  std::remove(path.c_str());

  VpTree recovered;
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  ASSERT_TRUE(LoadSnapshotOrRebuild(path, data, &recovered, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(recovered.size(), data.size());
}

// ---------------------------------------------------------------------------
// Retired and future format versions. Only HDSP v2 envelopes around HDSS v3
// or HDVP v2 payloads load. Anything else is refused with kNotSupported,
// never migrated, and LoadSnapshotOrRebuild rebuilds from the data. The
// refusal comes right after the version field, so each retired format is
// written as its header alone (magic + version).
// ---------------------------------------------------------------------------

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::string FormatHeader(const char* magic, uint32_t version) {
  std::string out(magic, 4);
  AppendPod(&out, version);
  return out;
}

// A current (v2) envelope with a valid checksum around `payload`.
std::string CurrentEnvelope(SnapshotKind kind, const std::string& payload) {
  std::string out = FormatHeader("HDSP", 2);
  AppendPod(&out, static_cast<uint32_t>(kind));
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, Crc32Of(payload.data(), payload.size()));
  out += payload;
  return out;
}

template <typename Tree>
void ExpectRefusedThenRebuilt(const std::string& path,
                              const std::vector<Hypersphere>& data,
                              Tree empty) {
  Tree loaded = std::move(empty);
  const Status status = LoadSnapshot(path, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kNotSupported) << status.ToString();
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(loaded.size(), 0u) << "a refused load must not fill the tree";

  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  Status load_error;
  ASSERT_TRUE(
      LoadSnapshotOrRebuild(path, data, &loaded, &outcome, &load_error).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(load_error.code(), StatusCode::kNotSupported);
  EXPECT_EQ(loaded.size(), data.size());
}

TEST(SnapshotVersionTest, RetiredAndFutureVersionsAreNotSupported) {
  const auto data = TestData(918, 40);
  const std::string path = TestPath("retired.snap");
  {
    SCOPED_TRACE("HDSP v1 envelope");
    WriteFile(path, FormatHeader("HDSP", 1));
    ExpectRefusedThenRebuilt(path, data, SsTree(3));
  }
  {
    SCOPED_TRACE("HDSP v3 envelope");
    WriteFile(path, FormatHeader("HDSP", 3));
    ExpectRefusedThenRebuilt(path, data, SsTree(3));
  }
  {
    SCOPED_TRACE("HDSS v2 payload in an HDSP v2 envelope");
    WriteFile(path, CurrentEnvelope(SnapshotKind::kSsTree,
                                    FormatHeader("HDSS", 2)));
    ExpectRefusedThenRebuilt(path, data, SsTree(3));
  }
  {
    SCOPED_TRACE("HDVP v1 payload in an HDSP v2 envelope");
    WriteFile(path, CurrentEnvelope(SnapshotKind::kVpTree,
                                    FormatHeader("HDVP", 1)));
    ExpectRefusedThenRebuilt(path, data, VpTree());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperdom

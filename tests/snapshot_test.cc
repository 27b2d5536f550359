// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe snapshot envelope (index/snapshot.h): round-trips must
// preserve query answers exactly, and any corruption — bit flips,
// truncation, an unknown kind — or a retired format version or kind must
// be detected before the tree structure is trusted, falling back to a
// rebuild when the raw data is available.

#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "query/knn.h"
#include "test_util.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> TestData(uint64_t seed, size_t n = 600,
                                  size_t dim = 3) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = dim;
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

// A bulk-loaded tree saves, loads and answers as before, in the same
// order and with the same sphere bits, also at sizes just past a capacity
// power, (d = 1, n = 401) and (d = 2, n = 8,001), where a one-item node
// would make LoadSnapshot refuse the file as corruption.
TEST(SnapshotTest, SsTreeRoundTripPreservesQueryAnswers) {
  struct Shape {
    uint64_t seed;
    size_t n;
    size_t dim;
  };
  const std::string path = TestPath("ss_roundtrip.snap");
  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  for (const Shape& shape : {Shape{901, 600, 3}, Shape{903, 401, 1},
                             Shape{904, 8001, 2}}) {
    SCOPED_TRACE("d " + std::to_string(shape.dim) + ", n " +
                 std::to_string(shape.n));
    const auto data = TestData(shape.seed, shape.n, shape.dim);
    SsTree tree(shape.dim);
    ASSERT_TRUE(tree.BulkLoadStr(data).ok());
    ASSERT_TRUE(SaveSnapshot(tree, path).ok());

    SsTree loaded(1);
    ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
    EXPECT_EQ(loaded.size(), tree.size());
    EXPECT_EQ(loaded.dim(), tree.dim());
    for (const auto& sq : MakeKnnQueries(data, 8, 902)) {
      EXPECT_EQ(test::DigestEntries(test::kDigestSeed,
                                    searcher.Search(loaded, sq).answers),
                test::DigestEntries(test::kDigestSeed,
                                    searcher.Search(tree, sq).answers));
    }
  }
  std::remove(path.c_str());
}

// Serialize then Deserialize reproduces every node sphere, every packed
// child bound (boxes and spheres) and the root box bit for bit on
// knn_paper-shaped data (hyperdom_bench: centres Gaussian(1000, 250),
// mu = 10, d = 4). Spheres and boxes are pure functions of the node's
// items (index/ss_tree.h), which the load recomputes bottom up.
TEST(SnapshotTest, SsTreeRoundTripReproducesEveryNodeSphere) {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 924;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  std::stringstream bytes;
  ASSERT_TRUE(tree.Serialize(bytes).ok());
  SsTree loaded(1);
  ASSERT_TRUE(SsTree::Deserialize(bytes, &loaded).ok());
  size_t nodes = 0;
  size_t differing = 0;
  auto compare = [&](auto& self, const SsTreeNode* a,
                     const SsTreeNode* b) -> void {
    ASSERT_EQ(a->is_leaf(), b->is_leaf());
    ASSERT_EQ(a->children().size(), b->children().size());
    const Hypersphere& sa = a->bounding_sphere();
    const Hypersphere& sb = b->bounding_sphere();
    const double ra = sa.radius();
    const double rb = sb.radius();
    ++nodes;
    const std::vector<double>& pa = a->child_bounds();
    const std::vector<double>& pb = b->child_bounds();
    if (std::memcmp(sa.center().data(), sb.center().data(),
                    sa.dim() * sizeof(double)) != 0 ||
        std::memcmp(&ra, &rb, sizeof(double)) != 0 ||
        pa.size() != pb.size() ||
        (!pa.empty() &&
         std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)) != 0)) {
      ++differing;
    }
    for (size_t i = 0; i < a->children().size(); ++i) {
      self(self, a->children()[i].get(), b->children()[i].get());
    }
  };
  compare(compare, tree.root(), loaded.root());
  EXPECT_GT(nodes, 1000u);
  EXPECT_EQ(differing, 0u) << differing << " of " << nodes
                           << " nodes' bounds differ after the round trip";
  ASSERT_EQ(tree.root_box().size(), 8u);
  ASSERT_EQ(loaded.root_box().size(), 8u);
  EXPECT_EQ(std::memcmp(tree.root_box().data(), loaded.root_box().data(),
                        8 * sizeof(double)),
            0);
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
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const std::string path = TestPath("truncate.snap");
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string pristine = ReadFile(path);

  for (size_t keep : {size_t{0}, size_t{3}, size_t{12}, size_t{23},
                      pristine.size() / 2, pristine.size() - 1}) {
    WriteFile(path, pristine.substr(0, keep));
    SsTree loaded(1);
    EXPECT_FALSE(LoadSnapshot(path, &loaded).ok()) << "kept " << keep;
    EXPECT_EQ(loaded.size(), 0u);
  }
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

  SsTree recovered(1);
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  ASSERT_TRUE(LoadSnapshotOrRebuild(path, data, &recovered, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(recovered.size(), data.size());
}

// ---------------------------------------------------------------------------
// Retired and future formats. Only HDSP v2 envelopes of kind 1 around HDSS
// v3 payloads load. A retired or future version, or the retired kind 2
// (the VP-tree's HDVP payload), is refused with kNotSupported, never
// migrated, and LoadSnapshotOrRebuild rebuilds from the data. The refusal
// comes right after the version or kind field, so each retired format is
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

// A current (v2) envelope of raw `kind` with a valid checksum around
// `payload`.
std::string CurrentEnvelope(uint32_t kind, const std::string& payload) {
  std::string out = FormatHeader("HDSP", 2);
  AppendPod(&out, kind);
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, Crc32Of(payload.data(), payload.size()));
  out += payload;
  return out;
}

constexpr uint32_t kSsTreeKind = static_cast<uint32_t>(SnapshotKind::kSsTree);

// LoadSnapshot refuses the file with `code` (kNotSupported by default)
// naming `reason`, and LoadSnapshotOrRebuild rebuilds from `data`.
void ExpectRefusedThenRebuilt(const std::string& path,
                              const std::vector<Hypersphere>& data,
                              const std::string& reason,
                              StatusCode code = StatusCode::kNotSupported) {
  SsTree loaded(3);
  const Status status = LoadSnapshot(path, &loaded);
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_NE(status.message().find(reason), std::string::npos)
      << status.ToString();
  EXPECT_EQ(loaded.size(), 0u) << "a refused load must not fill the tree";

  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  Status load_error;
  ASSERT_TRUE(
      LoadSnapshotOrRebuild(path, data, &loaded, &outcome, &load_error).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(load_error.code(), code);
  EXPECT_EQ(loaded.size(), data.size());
}

TEST(SnapshotVersionTest, RetiredAndFutureVersionsAreNotSupported) {
  const auto data = TestData(918, 40);
  const std::string path = TestPath("retired.snap");
  {
    SCOPED_TRACE("HDSP v1 envelope");
    WriteFile(path, FormatHeader("HDSP", 1));
    ExpectRefusedThenRebuilt(path, data, "version");
  }
  {
    SCOPED_TRACE("HDSP v3 envelope");
    WriteFile(path, FormatHeader("HDSP", 3));
    ExpectRefusedThenRebuilt(path, data, "version");
  }
  {
    SCOPED_TRACE("HDSS v2 payload in an HDSP v2 envelope");
    WriteFile(path, CurrentEnvelope(kSsTreeKind, FormatHeader("HDSS", 2)));
    ExpectRefusedThenRebuilt(path, data, "version");
  }
  {
    SCOPED_TRACE("kind 2 (HDVP v2 payload) in an HDSP v2 envelope");
    WriteFile(path, CurrentEnvelope(2, FormatHeader("HDVP", 2)));
    const auto info = VerifySnapshot(path);
    EXPECT_EQ(info.status().code(), StatusCode::kNotSupported)
        << info.status().ToString();
    EXPECT_NE(info.status().message().find("vp-tree"), std::string::npos)
        << info.status().ToString();
    ExpectRefusedThenRebuilt(path, data, "vp-tree");
  }
  std::remove(path.c_str());
}

TEST(SnapshotVersionTest, UnknownKindIsCorruption) {
  const auto data = TestData(919, 40);
  const std::string path = TestPath("unknown_kind.snap");
  WriteFile(path, CurrentEnvelope(3, FormatHeader("HDSS", 3)));
  EXPECT_EQ(VerifySnapshot(path).status().code(), StatusCode::kCorruption);
  SsTree loaded(1);
  const Status status = LoadSnapshot(path, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(loaded.size(), 0u);

  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  ASSERT_TRUE(LoadSnapshotOrRebuild(path, data, &loaded, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoadOutcome::kRebuilt);
  EXPECT_EQ(loaded.size(), data.size());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The HDSS v3 payload. Its header is magic "HDSS", u32 version 3, u64 dim,
// u64 size, u64 max_entries, then three retired fields (index/ss_tree.cc):
// an f64 that held the insertion split's minimum fill ratio, and two u32
// fields that once named a split and a bounding policy.
// ---------------------------------------------------------------------------

constexpr size_t kEnvelopeBytes = 24;
constexpr size_t kFillRatioOffset = 32;  // in the payload
constexpr size_t kSplitFieldOffset = 40;
constexpr size_t kBoundingFieldOffset = 44;

std::string HdssHeader(uint64_t dim, uint64_t size, uint64_t max_entries) {
  std::string out = FormatHeader("HDSS", 3);
  AppendPod(&out, dim);
  AppendPod(&out, size);
  AppendPod(&out, max_entries);
  AppendPod(&out, 0.4);
  AppendPod(&out, uint32_t{0});
  AppendPod(&out, uint32_t{0});
  return out;
}

template <typename T>
std::string Patch(std::string bytes, size_t offset, T value) {
  bytes.replace(offset, sizeof(value), reinterpret_cast<const char*>(&value),
                sizeof(value));
  return bytes;
}

// What SaveSnapshot writes is pinned by the CRC32 of the whole file. The
// bulk load stores its rows in leaf order (index/ss_tree.h). The retired
// fill-ratio field is written as 0.4 and is ignored on read. The two
// retired policy fields are written as 0; a file with 1 in either (as
// written for a 2-means or min-ball tree) still loads and answers like the
// original, because either split leaves a valid tree and every bound is
// recomputed on load; 2 in either is corruption.
TEST(SnapshotTest, SsTreeBytesArePinned) {
  const auto data = TestData(920, 500);
  const std::string path = TestPath("pinned.snap");
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  const std::string file = ReadFile(path);
  EXPECT_EQ(Crc32Of(file.data(), file.size()), 0xDF6E8FFCu);

  const std::string payload = file.substr(kEnvelopeBytes);
  double fill_ratio = 0.0;
  std::memcpy(&fill_ratio, payload.data() + kFillRatioOffset,
              sizeof(fill_ratio));
  EXPECT_EQ(fill_ratio, 0.4);
  ASSERT_EQ(payload.compare(kSplitFieldOffset, 8, std::string(8, '\0')), 0);
  HyperbolaCriterion exact;
  KnnSearcher searcher(&exact, KnnOptions{});
  const auto queries = MakeKnnQueries(data, 5, 921);
  for (const std::string& patched :
       {Patch(payload, kFillRatioOffset,
              std::numeric_limits<double>::quiet_NaN()),
        Patch(payload, kSplitFieldOffset, uint32_t{1}),
        Patch(payload, kBoundingFieldOffset, uint32_t{1}),
        Patch(Patch(payload, kSplitFieldOffset, uint32_t{1}),
              kBoundingFieldOffset, uint32_t{1})}) {
    WriteFile(path, CurrentEnvelope(kSsTreeKind, patched));
    SsTree loaded(1);
    ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
    EXPECT_TRUE(loaded.CheckInvariants().ok());
    for (const auto& sq : queries) {
      EXPECT_EQ(Ids(searcher.Search(loaded, sq)),
                Ids(searcher.Search(tree, sq)));
    }
  }
  for (size_t offset : {kSplitFieldOffset, kBoundingFieldOffset}) {
    const std::string patched = Patch(payload, offset, uint32_t{2});
    WriteFile(path, CurrentEnvelope(kSsTreeKind, patched));
    SsTree loaded(1);
    EXPECT_EQ(LoadSnapshot(path, &loaded).code(), StatusCode::kCorruption)
        << "field at payload byte " << offset;
  }
  std::remove(path.c_str());
}

// Counts in a checksummed payload that no records back: each load is
// kCorruption, with nothing allocated for the declared count, and
// LoadSnapshotOrRebuild rebuilds.
TEST(SnapshotVersionTest, UnbackedCountsAreCorruption) {
  const auto data = TestData(922, 40);
  const std::string path = TestPath("unbacked.snap");
  {
    SCOPED_TRACE("a store declaring 2^32 rows of dim 1 and carrying none");
    std::string payload = HdssHeader(1, 1, 24);
    AppendPod(&payload, uint64_t{1});
    AppendPod(&payload, uint64_t{1} << 32);
    ASSERT_EQ(payload.size(), 64u);
    WriteFile(path, CurrentEnvelope(kSsTreeKind, payload));
    ExpectRefusedThenRebuilt(path, data, "truncated",
                             StatusCode::kCorruption);
  }
  {
    SCOPED_TRACE("a leaf declaring 2^40 entries under max_entries 2^40");
    std::string payload = HdssHeader(1, 1, uint64_t{1} << 40);
    AppendPod(&payload, uint64_t{1});  // store: dim 1, one row
    AppendPod(&payload, uint64_t{1});
    AppendPod(&payload, 0.5);
    AppendPod(&payload, 1.0);
    AppendPod(&payload, uint8_t{1});  // leaf record
    AppendPod(&payload, uint64_t{1} << 40);
    ASSERT_EQ(payload.size(), 89u);
    WriteFile(path, CurrentEnvelope(kSsTreeKind, payload));
    ExpectRefusedThenRebuilt(path, data, "truncated",
                             StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

// A checksummed payload whose leaf references one store slot twice would
// answer that sphere under two ids and lose the other id's sphere: the
// load is kCorruption and LoadSnapshotOrRebuild rebuilds.
TEST(SnapshotVersionTest, SlotReferencedTwiceIsCorruption) {
  const auto data = TestData(923, 40);
  const std::string path = TestPath("slot_twice.snap");
  std::string payload = HdssHeader(2, 3, 24);
  AppendPod(&payload, uint64_t{2});  // store: dim 2, three rows
  AppendPod(&payload, uint64_t{3});
  for (double x : {0.0, 10.0, 20.0}) {
    AppendPod(&payload, x);
    AppendPod(&payload, 0.0);
    AppendPod(&payload, 1.0);
  }
  AppendPod(&payload, uint8_t{1});  // one leaf of three entries
  AppendPod(&payload, uint64_t{3});
  const uint32_t slots[] = {0, 0, 2};  // entry 1 should name slot 1
  for (uint64_t id = 0; id < 3; ++id) {
    AppendPod(&payload, slots[id]);
    AppendPod(&payload, id);
  }
  WriteFile(path, CurrentEnvelope(kSsTreeKind, payload));
  ExpectRefusedThenRebuilt(path, data, "referenced twice",
                           StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperdom

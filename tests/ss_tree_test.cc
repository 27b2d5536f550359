// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/ss_tree.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "data/generator.h"
#include "index/snapshot.h"
#include "test_util.h"

namespace hyperdom {
namespace {

TEST(SsTreeTest, EmptyTree) {
  SsTree tree(3);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SsTreeTest, SingleInsert) {
  SsTree tree(2);
  ASSERT_TRUE(tree.Insert(Hypersphere({1.0, 2.0}, 3.0), 7).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1u);
  ASSERT_NE(tree.root(), nullptr);
  EXPECT_TRUE(tree.root()->is_leaf());
  ASSERT_EQ(tree.root()->entries().size(), 1u);
  EXPECT_EQ(tree.root()->entries()[0].id, 7u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // The root bounding sphere covers the entry.
  EXPECT_TRUE(tree.root()->bounding_sphere().ContainsSphere(
      Hypersphere({1.0, 2.0}, 3.0)));
}

TEST(SsTreeTest, DimensionMismatchRejected) {
  SsTree tree(2);
  const Status st = tree.Insert(Hypersphere({1.0, 2.0, 3.0}, 0.5), 0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(SsTreeTest, BadOptionsRejected) {
  SsTreeOptions options;
  options.max_entries = 2;
  SsTree tree(2, options);
  EXPECT_EQ(tree.Insert(Hypersphere({0.0, 0.0}, 1.0), 0).code(),
            StatusCode::kInvalidArgument);

  SsTreeOptions bad_fill;
  bad_fill.min_fill_ratio = 0.9;
  SsTree tree2(2, bad_fill);
  EXPECT_EQ(tree2.Insert(Hypersphere({0.0, 0.0}, 1.0), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(SsTreeTest, SplitsGrowTheTree) {
  SsTreeOptions options;
  options.max_entries = 4;
  SsTree tree(2, options);
  Rng rng(800);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree.Insert(test::RandomSphere(&rng, 2, 2.0), i).ok());
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.Height(), 2u);
}

TEST(SsTreeTest, BulkLoadAssignsSequentialIds) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 3;
  spec.seed = 801;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_EQ(tree.size(), 500u);

  // Every id 0..499 appears exactly once in the leaves.
  std::set<uint64_t> ids;
  std::vector<const SsTreeNode*> stack = {tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) {
        EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
      }
    } else {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  EXPECT_EQ(ids.size(), 500u);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), 499u);
}

class SsTreeInvariantTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SsTreeInvariantTest, InvariantsHoldAfterBulkLoad) {
  const auto [dim, max_entries] = GetParam();
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = dim;
  spec.radius_mean = 10.0;
  spec.seed = 802 + dim;
  const auto data = GenerateSynthetic(spec);
  SsTreeOptions options;
  options.max_entries = max_entries;
  SsTree tree(dim, options);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  // All data spheres are covered by the root sphere.
  const Hypersphere& root_sphere = tree.root()->bounding_sphere();
  for (const auto& s : data) {
    EXPECT_LE(Dist(root_sphere.center(), s.center()) + s.radius(),
              root_sphere.radius() * (1.0 + 1e-9) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SsTreeInvariantTest,
    ::testing::Combine(::testing::Values<size_t>(2, 4, 10),
                       ::testing::Values<size_t>(4, 8, 24, 64)));

TEST(SsTreeTest, HeightStaysLogarithmic) {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.seed = 803;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);  // max_entries = 24
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  // ceil(log_{24*0.4}(20000)) is about 5; allow generous slack.
  EXPECT_LE(tree.Height(), 8u);
  EXPECT_GE(tree.Height(), 3u);
}

TEST(SsTreeTest, DuplicatePointsHandled) {
  SsTree tree(2);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(Hypersphere({1.0, 1.0}, 0.5), i).ok());
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

TEST(SsTreeTest, ZeroRadiusEntries) {
  Rng rng(804);
  SsTree tree(3);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        tree.Insert(Hypersphere(test::RandomPoint(&rng, 3), 0.0), i).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

class SsTreeSplitPolicyTest
    : public ::testing::TestWithParam<SsTreeSplitPolicy> {};

TEST_P(SsTreeSplitPolicyTest, InvariantsHoldUnderEitherPolicy) {
  SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 806;
  const auto data = GenerateSynthetic(spec);
  SsTreeOptions options;
  options.split_policy = GetParam();
  SsTree tree(4, options);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.size(), data.size());
}

TEST_P(SsTreeSplitPolicyTest, DegenerateDuplicatesSplitSafely) {
  SsTreeOptions options;
  options.split_policy = GetParam();
  options.max_entries = 4;
  SsTree tree(2, options);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Hypersphere({7.0, 7.0}, 1.0), i).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

INSTANTIATE_TEST_SUITE_P(Policies, SsTreeSplitPolicyTest,
                         ::testing::Values(SsTreeSplitPolicy::kVarianceCut,
                                           SsTreeSplitPolicy::kTwoMeans));

TEST(SsTreeSplitPolicyComparisonTest, TwoMeansGivesNoWorseCoverage) {
  // The SS+-style split exists to produce tighter child spheres; compare
  // the total bounding volume proxy (sum of squared radii of leaf-parent
  // spheres). Not a strict theorem — assert it is at least in the same
  // ballpark (within 2x), and both trees answer identically elsewhere.
  SyntheticSpec spec;
  spec.n = 6000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = 807;
  const auto data = GenerateSynthetic(spec);
  auto radius_mass = [](const SsTree& tree) {
    double total = 0.0;
    std::vector<const SsTreeNode*> stack = {tree.root()};
    while (!stack.empty()) {
      const SsTreeNode* node = stack.back();
      stack.pop_back();
      const double r = node->bounding_sphere().radius();
      total += r * r;
      if (!node->is_leaf()) {
        for (const auto& child : node->children()) {
          stack.push_back(child.get());
        }
      }
    }
    return total;
  };
  SsTreeOptions variance;
  SsTree tree_var(4, variance);
  ASSERT_TRUE(tree_var.BulkLoad(data).ok());
  SsTreeOptions kmeans;
  kmeans.split_policy = SsTreeSplitPolicy::kTwoMeans;
  SsTree tree_km(4, kmeans);
  ASSERT_TRUE(tree_km.BulkLoad(data).ok());
  EXPECT_LT(radius_mass(tree_km), 2.0 * radius_mass(tree_var));
}

class SsTreeBoundingPolicyTest
    : public ::testing::TestWithParam<SsTreeBoundingPolicy> {};

TEST_P(SsTreeBoundingPolicyTest, InvariantsHoldUnderEitherPolicy) {
  SyntheticSpec spec;
  spec.n = 2500;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 810;
  const auto data = GenerateSynthetic(spec);
  SsTreeOptions options;
  options.bounding_policy = GetParam();
  SsTree tree(4, options);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

INSTANTIATE_TEST_SUITE_P(Policies, SsTreeBoundingPolicyTest,
                         ::testing::Values(SsTreeBoundingPolicy::kCentroid,
                                           SsTreeBoundingPolicy::kMinBall));

TEST(SsTreeBoundingPolicyComparisonTest, MinBallBoundsAreTighter) {
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 4;
  spec.radius_mean = 5.0;
  spec.seed = 811;
  const auto data = GenerateSynthetic(spec);
  auto radius_mass = [](const SsTree& tree) {
    double total = 0.0;
    std::vector<const SsTreeNode*> stack = {tree.root()};
    while (!stack.empty()) {
      const SsTreeNode* node = stack.back();
      stack.pop_back();
      total += node->bounding_sphere().radius();
      if (!node->is_leaf()) {
        for (const auto& child : node->children()) {
          stack.push_back(child.get());
        }
      }
    }
    return total;
  };
  SsTree centroid_tree(4);
  ASSERT_TRUE(centroid_tree.BulkLoad(data).ok());
  SsTreeOptions tight;
  tight.bounding_policy = SsTreeBoundingPolicy::kMinBall;
  SsTree min_ball_tree(4, tight);
  ASSERT_TRUE(min_ball_tree.BulkLoad(data).ok());
  // Welzl bounds are minimal per node content; the trees' structures can
  // differ slightly (bounds feed back into nothing structural here, same
  // splits), so compare aggregate tightness.
  EXPECT_LE(radius_mass(min_ball_tree), radius_mass(centroid_tree));
}

// An SS-tree reaches a file only through the checksummed snapshot
// envelope (index/snapshot.h).
class SsTreePersistenceTest : public ::testing::Test {
 protected:
  std::string TempPath() {
    return testing::TempDir() + "/hyperdom_sstree_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".bin";
  }
};

TEST_F(SsTreePersistenceTest, RoundTripPreservesStructureAndAnswers) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 4;
  spec.radius_mean = 6.0;
  spec.seed = 808;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  const std::string path = TempPath();
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  SsTree loaded(0);
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  std::remove(path.c_str());

  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.dim(), tree.dim());
  EXPECT_EQ(loaded.Height(), tree.Height());
  EXPECT_EQ(loaded.options().max_entries, tree.options().max_entries);
  EXPECT_TRUE(loaded.CheckInvariants().ok())
      << loaded.CheckInvariants().ToString();

  // Same leaf payloads in the same positions.
  std::vector<const SsTreeNode*> s1 = {tree.root()}, s2 = {loaded.root()};
  while (!s1.empty()) {
    ASSERT_EQ(s1.empty(), s2.empty());
    const SsTreeNode* a = s1.back();
    const SsTreeNode* b = s2.back();
    s1.pop_back();
    s2.pop_back();
    ASSERT_EQ(a->is_leaf(), b->is_leaf());
    if (a->is_leaf()) {
      ASSERT_EQ(a->entries().size(), b->entries().size());
      for (size_t i = 0; i < a->entries().size(); ++i) {
        EXPECT_EQ(a->entries()[i].id, b->entries()[i].id);
        EXPECT_TRUE(tree.store().Materialize(a->entries()[i].slot) ==
                    loaded.store().Materialize(b->entries()[i].slot));
      }
    } else {
      ASSERT_EQ(a->children().size(), b->children().size());
      for (size_t i = 0; i < a->children().size(); ++i) {
        s1.push_back(a->children()[i].get());
        s2.push_back(b->children()[i].get());
      }
    }
  }
}

TEST_F(SsTreePersistenceTest, EmptyTreeRoundTrips) {
  SsTree tree(3);
  const std::string path = TempPath();
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  SsTree loaded(0);
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  std::remove(path.c_str());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.root(), nullptr);
}

TEST_F(SsTreePersistenceTest, MissingFileIsNotFound) {
  SsTree loaded(0);
  // common/io maps ENOENT to kNotFound.
  EXPECT_EQ(LoadSnapshot("/no/such/file.bin", &loaded).code(),
            StatusCode::kNotFound);
}

TEST_F(SsTreePersistenceTest, GarbageFileIsRejected) {
  const std::string path = TempPath();
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not an SS-tree";
  }
  SsTree loaded(0);
  EXPECT_EQ(LoadSnapshot(path, &loaded).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(SsTreePersistenceTest, TruncatedFileIsRejected) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 3;
  spec.seed = 809;
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(GenerateSynthetic(spec)).ok());
  const std::string path = TempPath();
  ASSERT_TRUE(SaveSnapshot(tree, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string content = buffer.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  SsTree loaded(0);
  const Status st = LoadSnapshot(path, &loaded);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(SsTreeTest, SubtreeSizesConsistent) {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 3;
  spec.seed = 805;
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoad(GenerateSynthetic(spec)).ok());
  EXPECT_EQ(tree.root()->subtree_size(), 2000u);
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/ss_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "data/generator.h"
#include "eval/workload.h"
#include "index/snapshot.h"
#include "test_util.h"

namespace hyperdom {
namespace {

TEST(SsTreeTest, EmptyTree) {
  SsTree tree(3);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
  EXPECT_TRUE(tree.root_box().empty());
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SsTreeTest, BadOptionsRejected) {
  SsTreeOptions options;
  options.max_entries = 2;
  SsTree tree(2, options);
  EXPECT_EQ(tree.BulkLoadStr({Hypersphere({0.0, 0.0}, 1.0)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(SsTreeTest, BulkLoadAssignsSequentialIds) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 3;
  spec.seed = 801;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
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
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
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
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  // Nodes are cut for 20 items (85% of 24): the least h with 20^h >= 20k.
  EXPECT_EQ(tree.Height(), 4u);
}

TEST(SsTreeTest, DuplicatePointsHandled) {
  SsTree tree(2);
  ASSERT_TRUE(tree.BulkLoadStr(std::vector<Hypersphere>(
                                   200, Hypersphere({1.0, 1.0}, 0.5)))
                  .ok());
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_EQ(tree.Height(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

TEST(SsTreeTest, ZeroRadiusEntries) {
  Rng rng(804);
  std::vector<Hypersphere> data;
  for (int i = 0; i < 500; ++i) {
    data.emplace_back(test::RandomPoint(&rng, 3), 0.0);
  }
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  EXPECT_EQ(tree.Height(), 3u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SsTreeTest, DegenerateDuplicatesSplitSafely) {
  SsTreeOptions options;
  options.max_entries = 4;
  SsTree tree(2, options);
  ASSERT_TRUE(tree.BulkLoadStr(std::vector<Hypersphere>(
                                   100, Hypersphere({7.0, 7.0}, 1.0)))
                  .ok());
  EXPECT_EQ(tree.Height(), 5u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

// Every node sphere is centred on the midpoint of its items' bounding box
// (a leaf's items are its entry spheres, an internal node's its child
// spheres), with the radius that covers every item from there.
TEST(SsTreeTest, BoundsAreCentredOnTheItemBox) {
  SyntheticSpec spec;
  spec.n = 2500;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = 810;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  const size_t dim = tree.dim();
  auto check = [&](auto& self, const SsTreeNode* node) -> void {
    std::vector<SphereView> items;
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) {
        items.push_back(tree.store().view(e.slot));
      }
    } else {
      for (const auto& child : node->children()) {
        items.push_back(child->bounding_sphere().view());
        self(self, child.get());
      }
    }
    Point lo(dim, std::numeric_limits<double>::infinity());
    Point hi(dim, -std::numeric_limits<double>::infinity());
    for (const SphereView& item : items) {
      for (size_t d = 0; d < dim; ++d) {
        lo[d] = std::min(lo[d], item.center[d] - item.radius);
        hi[d] = std::max(hi[d], item.center[d] + item.radius);
      }
    }
    Point center(dim);
    for (size_t d = 0; d < dim; ++d) center[d] = 0.5 * lo[d] + 0.5 * hi[d];
    double radius = 0.0;
    for (const SphereView& item : items) {
      radius = std::max(
          radius, DistSpan(center.data(), item.center, dim) + item.radius);
    }
    const Hypersphere& bound = node->bounding_sphere();
    EXPECT_EQ(std::memcmp(bound.center().data(), center.data(),
                          dim * sizeof(double)),
              0);
    const double bound_radius = bound.radius();
    EXPECT_EQ(std::memcmp(&bound_radius, &radius, sizeof(double)), 0);
  };
  check(check, tree.root());
}

// Every node bound the traversal computes, the MinDist of the node's
// sphere and of its box alike, is at most the computed MinDist of every
// entry beneath the node, over seeded queries: rounding never lifts a
// bound above an entry it must admit, so pruning on the larger bound stays
// exact. The sets are knn_paper-shaped (hyperdom_bench: centres
// Gaussian(1000, 250), mu = 10), the d = 4 one at its benchmark size, and
// cover both accumulation orders of the kernels (geometry/kernel_core.h).
// d = 1 is left out, and open in ROADMAP item 6: there a leaf's nearest
// entry has the same MinDist as the leaf's sphere and box in exact
// arithmetic, and rounding lifts the sphere bound above it for 108
// (node, query) pairs and the box bound for 19,066 on a d = 1 set of this
// shape (N = 20k, 50 queries), by at most 2.3e-13 and 4.6e-13.
TEST(SsTreeTest, NodeBoundsNeverExceedAnEntryBeneath) {
  struct Case {
    size_t dim;
    size_t n;
    size_t queries;
  };
  for (const Case& c : {Case{2, 20'000, 50}, Case{3, 20'000, 50},
                        Case{4, 20'000, 50}, Case{8, 20'000, 50},
                        Case{9, 20'000, 50}, Case{16, 20'000, 50},
                        Case{50, 2000, 10}}) {
    SyntheticSpec spec;
    spec.n = c.n;
    spec.dim = c.dim;
    spec.radius_mean = 10.0;
    spec.center_mean = 1000.0;
    spec.center_stddev = 250.0;
    spec.seed = 830 + c.dim;
    const auto data = GenerateSynthetic(spec);
    SsTree tree(c.dim);
    ASSERT_TRUE(tree.BulkLoadStr(data).ok());
    uint64_t nodes = 0;
    uint64_t violations = 0;
    uint64_t box_tighter = 0;
    for (const auto& sq : MakeKnnQueries(data, c.queries, 831 + c.dim)) {
      // Checks the node's two bounds against the least entry MinDist
      // beneath it, which it returns.
      auto walk = [&](auto& self, const SsTreeNode* node, double sphere_bound,
                      double box_bound) -> double {
        double least = std::numeric_limits<double>::infinity();
        if (node->is_leaf()) {
          for (const auto& e : node->entries()) {
            least = std::min(least,
                             MinDist(tree.store().view(e.slot), sq.view()));
          }
        } else {
          std::vector<double> spheres, boxes;
          test::SsChildBounds(*node, sq, &spheres, &boxes);
          for (size_t i = 0; i < spheres.size(); ++i) {
            least = std::min(least, self(self, node->children()[i].get(),
                                         spheres[i], boxes[i]));
          }
        }
        ++nodes;
        violations += sphere_bound > least ? 1 : 0;
        violations += box_bound > least ? 1 : 0;
        box_tighter += box_bound > sphere_bound ? 1 : 0;
        return least;
      };
      const auto [root_sphere, root_box] = test::SsRootBounds(tree, sq);
      walk(walk, tree.root(), root_sphere, root_box);
    }
    EXPECT_EQ(violations, 0u) << "d=" << c.dim << " over " << nodes
                              << " node bounds";
    if (c.dim == 4) {
      EXPECT_GT(box_tighter, 0u);
    }
  }
}

// An STR build appends each leaf's rows to the store as the leaf is made:
// the leaves, read left to right, hold slots 0, 1, 2, ... in order, and
// each slot holds the sphere its entry's id names.
TEST(SsTreeTest, StrLeavesHoldSlotsInOrder) {
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 4;
  spec.seed = 811;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  ASSERT_GT(tree.Height(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  uint32_t next_slot = 0;
  auto walk = [&](auto& self, const SsTreeNode* node) -> void {
    if (!node->is_leaf()) {
      for (const auto& child : node->children()) self(self, child.get());
      return;
    }
    for (const auto& e : node->entries()) {
      EXPECT_EQ(e.slot, next_slot++);
      EXPECT_TRUE(tree.store().Materialize(e.slot) == data[e.id]);
    }
  };
  walk(walk, tree.root());
  EXPECT_EQ(next_slot, data.size());
  EXPECT_EQ(tree.store().size(), data.size());
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
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());

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
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
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
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  EXPECT_EQ(tree.root()->subtree_size(), 2000u);
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Bulk loading (SsTree::BulkLoadStr): structural invariants, leaf order,
// completeness, and query equivalence against an insertion-built tree.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

std::set<uint64_t> TreeIds(const SsTree& tree) {
  std::set<uint64_t> ids;
  if (tree.root() == nullptr) return ids;
  std::vector<const SsTreeNode*> stack = {tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      for (const auto& e : node->entries()) ids.insert(e.id);
    } else {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  return ids;
}

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Bulk loading
// ---------------------------------------------------------------------------

class StrBulkLoadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StrBulkLoadTest, InvariantsAndCompleteness) {
  const size_t dim = GetParam();
  SyntheticSpec spec;
  spec.n = 5000;
  spec.dim = dim;
  spec.radius_mean = 8.0;
  spec.seed = 7000 + dim;
  const auto data = GenerateSynthetic(spec);
  SsTree tree(dim);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  EXPECT_EQ(tree.size(), data.size());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(TreeIds(tree).size(), data.size());
}

INSTANTIATE_TEST_SUITE_P(Dims, StrBulkLoadTest,
                         ::testing::Values(1, 2, 4, 10));

// Every bulk-loaded tree is valid, in 1 to 50 dimensions and at sizes on
// either side of the leaf capacity's powers (20, 400 and 8,000 rows at
// the default 24 entries; 3, 9, 27, … at 4), where a split that fills
// whole groups first leaves a one-item remainder: CheckInvariants passes,
// so no non-root node holds fewer than 2 items, and the leaves, read left
// to right, hold slots 0 … n-1.
TEST(StrBulkLoadTest, EveryShapeIsValid) {
  for (size_t max_entries : {24, 4}) {
    for (size_t dim : {1, 2, 3, 4, 50}) {
      for (size_t n : {1, 2, 3, 19, 20, 21, 39, 41, 399, 400, 401, 421, 8001,
                       8021}) {
        SCOPED_TRACE("max_entries " + std::to_string(max_entries) + ", d " +
                     std::to_string(dim) + ", n " + std::to_string(n));
        SyntheticSpec spec;
        spec.n = n;
        spec.dim = dim;
        spec.seed = 7006 + n;
        SsTreeOptions options;
        options.max_entries = max_entries;
        SsTree tree(dim, options);
        ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
        EXPECT_TRUE(tree.CheckInvariants().ok())
            << tree.CheckInvariants().ToString();
        uint32_t next_slot = 0;
        bool in_order = true;
        auto walk = [&](auto& self, const SsTreeNode* node) -> void {
          if (!node->is_leaf()) {
            for (const auto& child : node->children()) self(self, child.get());
            return;
          }
          for (const auto& e : node->entries()) {
            in_order &= e.slot == next_slot++;
          }
        };
        walk(walk, tree.root());
        EXPECT_TRUE(in_order);
        EXPECT_EQ(next_slot, n);
      }
    }
  }
}

TEST(StrBulkLoadTest, EmptyAndTiny) {
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr({}).ok());
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.BulkLoadStr({Hypersphere({1.0, 2.0, 3.0}, 0.5)}).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(StrBulkLoadTest, ReplacesPreviousContents) {
  SyntheticSpec spec;
  spec.n = 300;
  spec.dim = 2;
  spec.seed = 7001;
  SsTree tree(2);
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  spec.n = 100;
  spec.seed = 7002;
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(StrBulkLoadTest, DimensionMismatchRejected) {
  SsTree tree(2);
  EXPECT_EQ(tree.BulkLoadStr({Hypersphere({1.0, 2.0, 3.0}, 0.5)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(StrBulkLoadTest, QueriesMatchInsertionBuiltTree) {
  SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 4;
  spec.radius_mean = 6.0;
  spec.seed = 7003;
  const auto data = GenerateSynthetic(spec);
  SsTree str_tree(4);
  ASSERT_TRUE(str_tree.BulkLoadStr(data).ok());
  SsTree insert_tree(4);
  ASSERT_TRUE(insert_tree.BulkLoad(data).ok());

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 7;
  KnnSearcher searcher(&exact, options);
  for (const auto& sq : MakeKnnQueries(data, 8, 7004)) {
    EXPECT_EQ(Ids(searcher.Search(str_tree, sq)),
              Ids(searcher.Search(insert_tree, sq)));
  }
}

TEST(StrBulkLoadTest, PacksTighterThanInsertion) {
  SyntheticSpec spec;
  spec.n = 20'000;
  spec.dim = 4;
  spec.seed = 7005;
  const auto data = GenerateSynthetic(spec);
  SsTree str_tree(4);
  ASSERT_TRUE(str_tree.BulkLoadStr(data).ok());
  SsTree insert_tree(4);
  ASSERT_TRUE(insert_tree.BulkLoad(data).ok());
  // The bulk load's packed occupancy gives an equal-or-shorter tree.
  EXPECT_LE(str_tree.Height(), insert_tree.Height());
}

}  // namespace
}  // namespace hyperdom

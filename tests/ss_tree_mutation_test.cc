// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// STR bulk loading: structural invariants, completeness, and query
// equivalence against an insertion-built tree.

#include <gtest/gtest.h>

#include <set>

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
// STR bulk loading
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
  // STR's packed occupancy gives an equal-or-shorter tree.
  EXPECT_LE(str_tree.Height(), insert_tree.Height());
}

}  // namespace
}  // namespace hyperdom

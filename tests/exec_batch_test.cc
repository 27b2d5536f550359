// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The batch query engine (src/exec/batch.h). The central contract: a
// batch run is bit-identical to the serial single-query drivers at ANY
// thread count — same answers in the same order, same completeness flags,
// same traversal counters — for kNN and range, in exact and best-effort
// (deadline-bounded) runs, and with the fault registry armed. Best-effort
// determinism is tested with node budgets and zero wall budgets only;
// both expire deterministically (a live wall clock would not).

#include "exec/batch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/fault.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

std::vector<Hypersphere> TestData(uint64_t seed, size_t n = 1200) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 4;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

void ExpectSameKnnResult(const KnnResult& a, const KnnResult& b,
                         size_t qi, size_t threads) {
  ASSERT_EQ(a.answers.size(), b.answers.size())
      << "query " << qi << " at " << threads << " threads";
  for (size_t j = 0; j < a.answers.size(); ++j) {
    EXPECT_EQ(a.answers[j].id, b.answers[j].id)
        << "query " << qi << " answer " << j << " at " << threads
        << " threads";
  }
  EXPECT_EQ(a.completeness, b.completeness) << "query " << qi;
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << "query " << qi;
  EXPECT_EQ(a.stats.nodes_pruned, b.stats.nodes_pruned) << "query " << qi;
  EXPECT_EQ(a.stats.entries_accessed, b.stats.entries_accessed)
      << "query " << qi;
  EXPECT_EQ(a.stats.dominance_checks, b.stats.dominance_checks)
      << "query " << qi;
  EXPECT_EQ(a.stats.pruned_case2, b.stats.pruned_case2) << "query " << qi;
  EXPECT_EQ(a.stats.pruned_case3, b.stats.pruned_case3) << "query " << qi;
  EXPECT_EQ(a.stats.removed_case1, b.stats.removed_case1) << "query " << qi;
  EXPECT_EQ(a.stats.uncertain_verdicts, b.stats.uncertain_verdicts)
      << "query " << qi;
  EXPECT_EQ(a.stats.nodes_deadline_skipped, b.stats.nodes_deadline_skipped)
      << "query " << qi;
}

// The batch result must equal the plain serial driver loop (reference),
// and its aggregate stats must be the arithmetic sum of the per-query
// stats it returned.
void CheckKnnBatchAgainstReference(
    const std::vector<KnnResult>& reference, const BatchKnnResult& batch,
    size_t threads) {
  ASSERT_EQ(batch.results.size(), reference.size());
  for (size_t qi = 0; qi < reference.size(); ++qi) {
    ExpectSameKnnResult(reference[qi], batch.results[qi], qi, threads);
  }
  KnnStats sum;
  uint64_t best_effort = 0;
  for (const KnnResult& r : batch.results) {
    sum.nodes_visited += r.stats.nodes_visited;
    sum.nodes_pruned += r.stats.nodes_pruned;
    sum.entries_accessed += r.stats.entries_accessed;
    sum.dominance_checks += r.stats.dominance_checks;
    sum.nodes_deadline_skipped += r.stats.nodes_deadline_skipped;
    if (r.completeness == Completeness::kBestEffort) ++best_effort;
  }
  EXPECT_EQ(batch.stats.queries, reference.size());
  EXPECT_EQ(batch.stats.best_effort, best_effort);
  EXPECT_EQ(batch.stats.totals.nodes_visited, sum.nodes_visited);
  EXPECT_EQ(batch.stats.totals.nodes_pruned, sum.nodes_pruned);
  EXPECT_EQ(batch.stats.totals.entries_accessed, sum.entries_accessed);
  EXPECT_EQ(batch.stats.totals.dominance_checks, sum.dominance_checks);
  EXPECT_EQ(batch.stats.totals.nodes_deadline_skipped,
            sum.nodes_deadline_skipped);
}

class BatchKnnIdenticalTest : public ::testing::TestWithParam<bool> {
 protected:
  // Exact runs with the parameter false, deadline-bounded best-effort
  // runs (node budget) with true.
  KnnOptions Options() const {
    KnnOptions options;
    options.k = 5;
    if (GetParam()) options.deadline = Deadline::WithNodeBudget(12);
    return options;
  }
};

TEST_P(BatchKnnIdenticalTest, SsTreeMatchesSerialAtEveryThreadCount) {
  const auto data = TestData(7100);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion criterion;
  const KnnOptions options = Options();
  const auto queries = MakeKnnQueries(data, 40, 7101);

  const KnnSearcher searcher(&criterion, options);
  std::vector<KnnResult> reference;
  for (const auto& sq : queries) reference.push_back(searcher.Search(tree, sq));

  for (size_t threads : kThreadCounts) {
    BatchOptions exec;
    exec.threads = threads;
    const BatchKnnResult batch =
        BatchKnn(tree, queries, criterion, options, exec);
    CheckKnnBatchAgainstReference(reference, batch, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(ExactAndBestEffort, BatchKnnIdenticalTest,
                         ::testing::Values(false, true));

TEST(BatchKnnTest, ZeroWallDeadlineIsDeterministicallyBestEffort) {
  const auto data = TestData(7300, 400);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion criterion;
  KnnOptions options;
  options.k = 5;
  // Already expired at construction: every query stops at its first poll,
  // deterministically, without depending on a live clock race.
  options.deadline = Deadline::AfterDuration(std::chrono::nanoseconds(0));
  const auto queries = MakeKnnQueries(data, 12, 7301);

  for (size_t threads : kThreadCounts) {
    BatchOptions exec;
    exec.threads = threads;
    const BatchKnnResult batch =
        BatchKnn(tree, queries, criterion, options, exec);
    EXPECT_EQ(batch.stats.best_effort, queries.size());
    for (const KnnResult& r : batch.results) {
      EXPECT_EQ(r.completeness, Completeness::kBestEffort);
      EXPECT_EQ(r.stats.nodes_visited, 0u);
      EXPECT_TRUE(r.answers.empty());
    }
  }
}

TEST(BatchRangeTest, MatchesSerialAtEveryThreadCount) {
  const auto data = TestData(7400, 900);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const auto queries = MakeKnnQueries(data, 30, 7401);
  const double range = 35.0;

  for (const Deadline& deadline :
       {Deadline::Unbounded(), Deadline::WithNodeBudget(10)}) {
    std::vector<RangeResult> reference;
    for (const auto& sq : queries) {
      reference.push_back(RangeSearch(tree, sq, range, deadline));
    }
    for (size_t threads : kThreadCounts) {
      BatchOptions exec;
      exec.threads = threads;
      const BatchRangeResult batch =
          BatchRange(tree, queries, range, deadline, exec);
      ASSERT_EQ(batch.results.size(), reference.size());
      RangeStats sum;
      uint64_t best_effort = 0;
      for (size_t qi = 0; qi < reference.size(); ++qi) {
        const RangeResult& want = reference[qi];
        const RangeResult& got = batch.results[qi];
        EXPECT_EQ(got.completeness, want.completeness) << "query " << qi;
        ASSERT_EQ(got.certain.size(), want.certain.size()) << "query " << qi;
        ASSERT_EQ(got.possible.size(), want.possible.size())
            << "query " << qi;
        for (size_t j = 0; j < want.possible.size(); ++j) {
          EXPECT_EQ(got.possible[j].id, want.possible[j].id)
              << "query " << qi;
        }
        EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
        sum.nodes_visited += got.stats.nodes_visited;
        sum.nodes_pruned += got.stats.nodes_pruned;
        sum.entries_accessed += got.stats.entries_accessed;
        sum.nodes_deadline_skipped += got.stats.nodes_deadline_skipped;
        if (got.completeness == Completeness::kBestEffort) ++best_effort;
      }
      EXPECT_EQ(batch.queries, queries.size());
      EXPECT_EQ(batch.best_effort, best_effort);
      EXPECT_EQ(batch.totals.nodes_visited, sum.nodes_visited);
      EXPECT_EQ(batch.totals.nodes_pruned, sum.nodes_pruned);
      EXPECT_EQ(batch.totals.entries_accessed, sum.entries_accessed);
      EXPECT_EQ(batch.totals.nodes_deadline_skipped,
                sum.nodes_deadline_skipped);
    }
  }
}

TEST(BatchKnnTest, ExternallyOwnedPoolIsUsedAndResultsMatch) {
  const auto data = TestData(7500, 500);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion criterion;
  KnnOptions options;
  options.k = 3;
  const auto queries = MakeKnnQueries(data, 10, 7501);

  BatchOptions serial;
  serial.threads = 1;
  const BatchKnnResult want =
      BatchKnn(tree, queries, criterion, options, serial);

  ThreadPool pool(4);
  BatchOptions exec;
  exec.pool = &pool;
  exec.threads = 99;  // must be ignored in favor of the pool's size
  const BatchKnnResult got =
      BatchKnn(tree, queries, criterion, options, exec);
  EXPECT_EQ(got.stats.threads, 4u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameKnnResult(want.results[qi], got.results[qi], qi, 4);
  }
}

// A batch starts at most one worker per query: two queries at eight
// threads run on two.
TEST(BatchKnnTest, StartsAtMostOneWorkerPerQuery) {
  const auto data = TestData(7550, 300);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  HyperbolaCriterion criterion;
  const auto queries = MakeKnnQueries(data, 2, 7551);
  BatchOptions exec;
  exec.threads = 8;
  const BatchKnnResult batch =
      BatchKnn(tree, queries, criterion, KnnOptions{}, exec);
  EXPECT_EQ(batch.stats.threads, 2u);
  ASSERT_EQ(batch.results.size(), 2u);
  const KnnSearcher searcher(&criterion, KnnOptions{});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameKnnResult(searcher.Search(tree, queries[qi]), batch.results[qi],
                        qi, 2);
  }
}

// With ArmRandom active, the certified criterion's degrade sites fire
// inside query execution. FaultQueryScope must make which queries get hit
// a pure function of (seed, query index) — so batch runs are identical at
// every thread count AND across repeated runs from the seed alone.
TEST(BatchKnnFaultTest, ArmedRandomFaultsAreThreadCountInvariant) {
  const auto data = TestData(7600, 600);
  SsTree tree(4);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const auto criterion = MakeCriterion(CriterionKind::kCertified);
  KnnOptions options;
  options.k = 5;
  const auto queries = MakeKnnQueries(data, 30, 7601);

  auto run_batch = [&](size_t threads) {
    FaultRegistry::Instance().ArmRandom(0xFA117, 0.05);
    BatchOptions exec;
    exec.threads = threads;
    const BatchKnnResult batch =
        BatchKnn(tree, queries, *criterion, options, exec);
    FaultRegistry::Instance().Reset();
    return batch;
  };

  const BatchKnnResult want = run_batch(1);
  // Faults really fired somewhere, or the test proves nothing: with p=5%
  // over thousands of certified escalations some uncertain verdicts are
  // forced. (uncertain_verdicts is also populated without faults; the
  // invariance checks below are what matter.)
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const BatchKnnResult got = run_batch(threads);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectSameKnnResult(want.results[qi], got.results[qi], qi, threads);
    }
  }
  // Reproducible from the seed alone: a second 8-thread run is identical.
  const BatchKnnResult again = run_batch(8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameKnnResult(want.results[qi], again.results[qi], qi, 8);
  }
}

}  // namespace
}  // namespace hyperdom

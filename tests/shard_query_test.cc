// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The scatter-gather contract of src/shard/sharded_query.h: sharded kNN
// answers are BIT-IDENTICAL to a single unsharded index over the same
// dataset — for every shard count, partitioning policy, traversal strategy
// and scatter thread count — and sharded range queries return the
// unsharded answer, both in id order. Plus the robustness edges: best-effort
// subsets under deadlines, fair node-budget splitting, and shard/scatter
// fault propagation.

#include "shard/sharded_query.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "exec/thread_pool.h"
#include "query/knn.h"
#include "query/range.h"

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
    for (size_t d = 0; d < kDim; ++d) c[d] = rng.Gaussian(0.0, 25.0);
    data.emplace_back(c, rng.Uniform(0.0, 3.0));
  }
  return data;
}

std::vector<Hypersphere> MakeQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Hypersphere> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point c(kDim);
    for (size_t d = 0; d < kDim; ++d) c[d] = rng.Gaussian(0.0, 10.0);
    queries.emplace_back(c, rng.Uniform(0.0, 2.0));
  }
  return queries;
}

bool SameBits(const Hypersphere& a, const Hypersphere& b) {
  if (a.dim() != b.dim()) return false;
  const double ra = a.radius();
  const double rb = b.radius();
  if (std::memcmp(&ra, &rb, sizeof(double)) != 0) return false;
  return std::memcmp(a.center().data(), b.center().data(),
                     a.dim() * sizeof(double)) == 0;
}

void ExpectIdentical(const std::vector<DataEntry>& got,
                     const std::vector<DataEntry>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " position " << i;
    EXPECT_TRUE(SameBits(got[i].sphere, want[i].sphere))
        << context << " position " << i;
  }
}

KnnResult UnshardedKnn(const std::vector<Hypersphere>& data,
                       const Hypersphere& sq,
                       const DominanceCriterion& criterion,
                       const KnnOptions& options) {
  SsTree tree(kDim);
  EXPECT_TRUE(tree.BulkLoadStr(data).ok());
  return KnnSearcher(&criterion, options).Search(tree, sq);
}

class ShardedQueryTest : public ::testing::Test {
 protected:
  HyperbolaCriterion criterion_;
};

TEST_F(ShardedQueryTest, KnnBitIdenticalAcrossShardAndThreadCounts) {
  const auto data = MakeData(800, 101);
  const auto queries = MakeQueries(6, 202);
  KnnOptions options;
  options.k = 8;

  // Unsharded SS-tree reference, computed once per query.
  std::vector<KnnResult> expected;
  for (const auto& sq : queries) {
    expected.push_back(UnshardedKnn(data, sq, criterion_, options));
  }

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardingOptions sharding;
    sharding.shards = shards;
    ShardedStore store;
    ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      for (size_t q = 0; q < queries.size(); ++q) {
        Result<KnnResult> got =
            ShardedKnn(store, queries[q], criterion_, options, pool_ptr);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->completeness, Completeness::kExact);
        ExpectIdentical(got->answers, expected[q].answers,
                        "K=" + std::to_string(shards) + " threads=" +
                            std::to_string(threads) + " q=" +
                            std::to_string(q));
      }
    }
  }
}

TEST_F(ShardedQueryTest, KnnBitIdenticalAcrossPoliciesKindsAndStrategies) {
  const auto data = MakeData(500, 303);
  const auto queries = MakeQueries(4, 404);

  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kKmeans}) {
    for (SearchStrategy strategy :
         {SearchStrategy::kBestFirst, SearchStrategy::kDepthFirst}) {
      KnnOptions options;
      options.k = 5;
      options.strategy = strategy;
      ShardingOptions sharding;
      sharding.shards = 4;
      sharding.policy = policy;
      ShardedStore store;
      ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
      ThreadPool pool(2);
      for (size_t q = 0; q < queries.size(); ++q) {
        const KnnResult expected =
            UnshardedKnn(data, queries[q], criterion_, options);
        Result<KnnResult> got =
            ShardedKnn(store, queries[q], criterion_, options, &pool);
        ASSERT_TRUE(got.ok());
        ExpectIdentical(
            got->answers, expected.answers,
            std::string(ShardPolicyName(policy)) + "/strategy=" +
                (strategy == SearchStrategy::kBestFirst ? "hs" : "df") +
                " q=" + std::to_string(q));
      }
    }
  }
}

TEST_F(ShardedQueryTest, KnnRejectsEagerPruning) {
  const auto data = MakeData(50, 1);
  ShardingOptions sharding;
  sharding.shards = 2;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
  KnnOptions options;
  options.pruning_mode = KnnPruningMode::kEager;
  const auto result =
      ShardedKnn(store, MakeQueries(1, 2)[0], criterion_, options);
  EXPECT_FALSE(result.ok());
}

TEST_F(ShardedQueryTest, PerShardStatsCoverEveryShard) {
  const auto data = MakeData(400, 21);
  ShardingOptions sharding;
  sharding.shards = 4;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
  KnnOptions options;
  options.k = 4;
  std::vector<KnnStats> per_shard;
  Result<KnnResult> got = ShardedKnn(store, MakeQueries(1, 22)[0], criterion_,
                                     options, nullptr, &per_shard);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(per_shard.size(), 4u);
  uint64_t total_nodes = 0;
  for (const KnnStats& s : per_shard) {
    EXPECT_GT(s.nodes_visited, 0u);  // every shard really ran
    total_nodes += s.nodes_visited;
  }
  // The merged stats fold the per-shard traversal counters in (plus the
  // merge/filter work, which adds no node visits).
  EXPECT_EQ(got->stats.nodes_visited, total_nodes);
}

TEST_F(ShardedQueryTest, BestEffortAnswersAreCertifiedSubsets) {
  const auto data = MakeData(800, 55);
  const auto queries = MakeQueries(5, 56);
  KnnOptions exact_options;
  exact_options.k = 8;

  ShardingOptions sharding;
  sharding.shards = 4;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());

  for (const auto& sq : queries) {
    const KnnResult exact = UnshardedKnn(data, sq, criterion_, exact_options);
    std::set<uint64_t> exact_ids;
    for (const auto& e : exact.answers) exact_ids.insert(e.id);

    KnnOptions tight = exact_options;
    tight.deadline = Deadline::WithNodeBudget(8);
    Result<KnnResult> got = ShardedKnn(store, sq, criterion_, tight);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->completeness, Completeness::kBestEffort);
    for (const auto& e : got->answers) {
      EXPECT_TRUE(exact_ids.count(e.id))
          << "best-effort answer " << e.id << " not in the exact answer";
    }
  }
}

// The budget-skew regression: under a serial scatter an unsplit budget
// would let shard 0 spend it all and starve shards 1..K-1. The fair split
// caps every shard at budget/K (+1) nodes and every shard still runs.
TEST_F(ShardedQueryTest, NodeBudgetSplitsFairlyAcrossShardsInSerialMode) {
  const auto data = MakeData(1200, 77);
  ShardingOptions sharding;
  sharding.shards = 4;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());

  const uint64_t budget = 40;
  KnnOptions options;
  options.k = 4;
  options.deadline = Deadline::WithNodeBudget(budget);
  std::vector<KnnStats> per_shard;
  Result<KnnResult> got = ShardedKnn(store, MakeQueries(1, 78)[0], criterion_,
                                     options, /*pool=*/nullptr, &per_shard);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(per_shard.size(), 4u);
  const uint64_t share = budget / 4 + 1;
  for (size_t j = 0; j < per_shard.size(); ++j) {
    // No shard — in particular not shard 0 — exceeds its fair share.
    EXPECT_LE(per_shard[j].nodes_visited, share) << "shard " << j;
    // And no shard was starved: each got to expand nodes of its own.
    EXPECT_GT(per_shard[j].nodes_visited, 0u) << "shard " << j;
  }
}

TEST_F(ShardedQueryTest, RangeMatchesUnshardedInIdOrder) {
  const auto data = MakeData(600, 99);
  const auto queries = MakeQueries(4, 98);
  SsTree unsharded(kDim);
  ASSERT_TRUE(unsharded.BulkLoadStr(data).ok());

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardingOptions sharding;
    sharding.shards = shards;
    ShardedStore store;
    ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
    ThreadPool pool(2);
    for (const auto& sq : queries) {
      const double range = 20.0;
      const RangeResult expected = RangeSearch(unsharded, sq, range);
      Result<RangeResult> got = ShardedRange(store, sq, range,
                                             Deadline::Unbounded(), &pool);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->completeness, Completeness::kExact);
      ExpectIdentical(got->certain, expected.certain,
                      "certain K=" + std::to_string(shards));
      ExpectIdentical(got->possible, expected.possible,
                      "possible K=" + std::to_string(shards));
    }
  }
}

// MinDist reads as many query coordinates as the store has dimensions, so
// range refuses a query of the wrong dimensionality exactly as kNN does.
TEST_F(ShardedQueryTest, RangeRejectsWrongDimensionality) {
  const auto data = MakeData(50, 5);
  ShardingOptions sharding;
  sharding.shards = 2;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
  const Hypersphere narrow({1.0}, 0.5);
  const auto range = ShardedRange(store, narrow, 10.0);
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);
  const auto knn = ShardedKnn(store, narrow, criterion_, KnnOptions{});
  ASSERT_FALSE(knn.ok());
  EXPECT_EQ(range.status().ToString(), knn.status().ToString());
}

#if defined(HYPERDOM_FAULT_INJECTION_ENABLED)
TEST_F(ShardedQueryTest, ScatterFaultPropagatesAsError) {
  const auto data = MakeData(200, 31);
  ShardingOptions sharding;
  sharding.shards = 4;
  ShardedStore store;
  ASSERT_TRUE(ShardedStore::Build(data, sharding, &store).ok());
  const auto queries = MakeQueries(1, 32);
  KnnOptions options;

  // shard/scatter fires once per (query, shard): any of the four
  // executions failing must surface as the query's error.
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    FaultRegistry::Instance().ArmSite("shard/scatter", nth);
    const auto result = ShardedKnn(store, queries[0], criterion_, options);
    EXPECT_FALSE(result.ok()) << "nth=" << nth;
  }
  FaultRegistry::Instance().Reset();
  EXPECT_TRUE(ShardedKnn(store, queries[0], criterion_, options).ok());
}
#endif  // HYPERDOM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace shard
}  // namespace hyperdom

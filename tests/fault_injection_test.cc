// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Fault-injection sweeps (common/fault.h). A workload touching every
// fallible subsystem — CSV I/O, the SS-tree build, snapshot
// save/load, the certified escalation chain — is run with each site armed
// in turn: every failure must surface as a clean Status naming the site
// (or, for the certified degrade sites, as a conservative verdict), never
// as a crash. A seeded 1%-probability randomized run across 10k queries
// then shakes out interactions between sites.

#include "common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/io.h"
#include "data/csv.h"
#include "data/generator.h"
#include "dominance/certified.h"
#include "dominance/criterion.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "index/rotation.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

std::vector<Hypersphere> WorkloadData(uint64_t seed, size_t n = 300) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 3;
  spec.radius_mean = 8.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

std::string WorkloadPath(const std::string& name) {
  return ::testing::TempDir() + "hyperdom_fault_" + name;
}

// Disarms the registry when a test ends, whatever happened.
struct RegistryGuard {
  ~RegistryGuard() { FaultRegistry::Instance().Reset(); }
};

// Runs one pass through every fallible subsystem, stopping at the first
// non-OK Status. Certified verdicts cannot fail; they are exercised for
// their degrade sites and checked separately.
Status RunFallibleWorkload(const std::vector<Hypersphere>& data,
                           const std::string& tag) {
  const std::string csv_path = WorkloadPath(tag + ".csv");
  const std::string ss_path = WorkloadPath(tag + "_ss.snap");

  HYPERDOM_RETURN_NOT_OK(SaveSpheresCsv(csv_path, data));
  auto reloaded = LoadSpheresCsv(csv_path);
  HYPERDOM_RETURN_NOT_OK(reloaded.status());

  // The SS-tree's bulk load reaches str_pack.
  SsTree str_tree(3);
  HYPERDOM_RETURN_NOT_OK(str_tree.BulkLoadStr(data));

  HYPERDOM_RETURN_NOT_OK(SaveSnapshot(str_tree, ss_path));
  SsTree ss_loaded(1);
  HYPERDOM_RETURN_NOT_OK(LoadSnapshot(ss_path, &ss_loaded));

  // Certified chain: tier 1 (certified/quartic) runs on every call.
  const CertifiedDominance engine;
  for (size_t i = 0; i + 2 < data.size(); i += 3) {
    (void)engine.Decide(data[i], data[i + 1], data[i + 2]);
  }

  // Mutable store: Insert reaches store/insert, an explicit Compact
  // reaches store/compact (auto-compaction stays off below its delta
  // threshold).
  MutableSsTree store(3);
  for (size_t i = 0; i < std::min<size_t>(data.size(), 32); ++i) {
    HYPERDOM_RETURN_NOT_OK(store.Insert(data[i], 10'000 + i));
  }
  HYPERDOM_RETURN_NOT_OK(store.Compact());

  // Snapshot rotation reaches snapshot/rotate.
  const std::string rot_dir = WorkloadPath(tag + "_rot");
  ::mkdir(rot_dir.c_str(), 0755);
  SnapshotRotator rotator(rot_dir, "store");
  const Status rotated = rotator.Persist(str_tree);
  if (auto entries = ListDirectory(rot_dir); entries.ok()) {
    for (const auto& name : *entries) {
      std::remove((rot_dir + "/" + name).c_str());
    }
  }
  ::rmdir(rot_dir.c_str());
  HYPERDOM_RETURN_NOT_OK(rotated);

  std::remove(csv_path.c_str());
  std::remove(ss_path.c_str());
  return Status::OK();
}

TEST(FaultRegistryTest, ArmSiteFiresExactlyTheNthHit) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  registry.ArmSite("csv/open_read", 3);
  EXPECT_TRUE(registry.Hit("csv/open_read").ok());
  EXPECT_TRUE(registry.Hit("csv/open_read").ok());
  const Status fired = registry.Hit("csv/open_read");
  EXPECT_FALSE(fired.ok());
  EXPECT_NE(fired.message().find("csv/open_read"), std::string::npos);
  // Single-shot: later hits pass again.
  EXPECT_TRUE(registry.Hit("csv/open_read").ok());
  EXPECT_EQ(registry.injected(), 1u);
  // Other sites are unaffected.
  EXPECT_TRUE(registry.Hit("csv/parse_row").ok());
}

TEST(FaultRegistryTest, RandomModeIsDeterministicInSeed) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  auto pattern = [&](uint64_t seed) {
    registry.ArmRandom(seed, 0.3);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(!registry.Hit("store/insert").ok());
    }
    return fired;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultRegistryTest, ResetDisarms) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  registry.ArmSite("csv/open_read", 1);
  EXPECT_TRUE(registry.armed());
  registry.Reset();
  EXPECT_FALSE(registry.armed());
  EXPECT_TRUE(registry.Hit("csv/open_read").ok());
  EXPECT_EQ(registry.injected(), 0u);
}

// With counting enabled but no faults (p = 0), the workload must execute
// every Status-returning site at least once — otherwise the sweep below
// proves nothing for the unexecuted sites.
TEST(FaultInjectionTest, WorkloadCoversEveryStatusSite) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  registry.ArmRandom(/*seed=*/1, /*probability=*/0.0);
  const auto data = WorkloadData(7001);
  ASSERT_TRUE(RunFallibleWorkload(data, "coverage").ok());
  for (std::string_view site : AllFaultSites()) {
    if (IsDegradeFaultSite(site)) continue;  // covered by the p=1 test
    // server/* sites run on the network request path, not in this
    // workload; the `server`-labelled suite has its own armed sweep.
    // shard/* sites run in the scatter-gather engine; the `shard`-labelled
    // suite arms them (tests/shard_query_test.cc, shard_partition_test.cc).
    if (site.substr(0, 7) == "server/") continue;
    if (site.substr(0, 6) == "shard/") continue;
    EXPECT_GT(registry.hits(site), 0u) << "site never executed: " << site;
  }
  EXPECT_EQ(registry.injected(), 0u);
}

// Arming each Status site in turn: the workload must fail with a Status
// that names the site — and nothing worse.
TEST(FaultInjectionTest, EverySiteFailsWithCleanStatus) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  const auto data = WorkloadData(7002);
  for (std::string_view site : AllFaultSites()) {
    if (IsDegradeFaultSite(site)) continue;
    if (site.substr(0, 7) == "server/") continue;  // server-suite sweep
    if (site.substr(0, 6) == "shard/") continue;   // shard-suite sweep
    registry.ArmSite(site, 1);
    const Status status = RunFallibleWorkload(data, "sweep");
    EXPECT_FALSE(status.ok()) << "armed site did not surface: " << site;
    EXPECT_NE(status.message().find(site), std::string::npos)
        << "wrong failure for " << site << ": " << status.ToString();
    EXPECT_EQ(registry.injected(), 1u) << site;
  }
}

// Degrade sites (the certified escalation chain) must never produce a
// Status failure — only conservative kUncertain verdicts. Forcing every
// tier to degrade (p = 1) walks the whole chain on each call.
TEST(FaultInjectionTest, DegradeSitesDegradeNeverFail) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  const auto data = WorkloadData(7003, 90);

  registry.ArmRandom(/*seed=*/5, /*probability=*/1.0);
  const CertifiedDominance engine;
  for (size_t i = 0; i + 2 < data.size(); i += 3) {
    const Verdict v = engine.Decide(data[i], data[i + 1], data[i + 2]);
    EXPECT_EQ(v, Verdict::kUncertain)
        << "a fully degraded chain must answer kUncertain";
  }
  for (std::string_view site : AllFaultSites()) {
    if (!IsDegradeFaultSite(site)) continue;
    EXPECT_GT(registry.hits(site), 0u) << "degrade site never hit: " << site;
  }

  // Individually armed, a degraded tier is simply skipped: the chain
  // escalates past it and the workload stays clean end to end.
  for (std::string_view site : AllFaultSites()) {
    if (!IsDegradeFaultSite(site)) continue;
    registry.ArmSite(site, 1);
    const Status status = RunFallibleWorkload(data, "degrade");
    EXPECT_TRUE(status.ok()) << site << ": " << status.ToString();
  }
}

// The acceptance run: seeded 1%-probability faults across 10k certified
// queries plus periodic snapshot/CSV cycles. No crashes; every failure is
// a Status; query answers stay supersets of the exact Definition-2 set
// (degraded verdicts keep entries, never drop them).
TEST(FaultInjectionTest, RandomizedTenThousandQuerySweep) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  const auto data = WorkloadData(7004, 200);
  SsTree tree(3);
  ASSERT_TRUE(tree.BulkLoadStr(data).ok());
  const auto queries = MakeKnnQueries(data, 10'000, 7005);

  HyperbolaCriterion exact;
  const auto certified = MakeCriterion(CriterionKind::kCertified);
  KnnSearcher searcher(certified.get(), KnnOptions{});
  KnnSearcher exact_searcher(&exact, KnnOptions{});

  // Exact answers computed before arming, so they are fault-free.
  std::vector<std::set<uint64_t>> truth;
  truth.reserve(queries.size());
  for (const auto& sq : queries) {
    std::set<uint64_t> ids;
    for (const auto& e : exact_searcher.Search(tree, sq).answers) {
      ids.insert(e.id);
    }
    truth.push_back(std::move(ids));
  }

  registry.ArmRandom(/*seed=*/0xFA17, /*probability=*/0.01);
  uint64_t status_failures = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const KnnResult result = searcher.Search(tree, queries[i]);
    std::set<uint64_t> ids;
    for (const auto& e : result.answers) ids.insert(e.id);
    ASSERT_TRUE(std::includes(ids.begin(), ids.end(), truth[i].begin(),
                              truth[i].end()))
        << "degraded query " << i << " lost an exact answer";
    if (i % 500 == 0) {
      // Interleave fallible subsystems; failures must be clean Statuses.
      const std::string path = WorkloadPath("rand.snap");
      const Status saved = SaveSnapshot(tree, path);
      if (!saved.ok()) {
        ++status_failures;
      } else {
        SsTree loaded(1);
        if (!LoadSnapshot(path, &loaded).ok()) ++status_failures;
        std::remove(path.c_str());
      }
    }
  }
  // With p = 1% over tens of thousands of site executions, faults fired.
  EXPECT_GT(registry.injected(), 0u);
  // Same seed, same workload => identical injection count (determinism).
  const uint64_t first_run = registry.injected();
  registry.ArmRandom(/*seed=*/0xFA17, /*probability=*/0.01);
  for (size_t i = 0; i < queries.size(); ++i) {
    (void)searcher.Search(tree, queries[i]);
    if (i % 500 == 0) {
      const std::string path = WorkloadPath("rand.snap");
      if (SaveSnapshot(tree, path).ok()) {
        SsTree loaded(1);
        (void)LoadSnapshot(path, &loaded);
        std::remove(path.c_str());
      }
    }
  }
  EXPECT_EQ(registry.injected(), first_run);
}

// --- FaultQueryScope: per-query streams under concurrency -----------------

TEST(FaultQueryScopeTest, ActiveAndCurrentQueryIdTrackTheScope) {
  EXPECT_FALSE(FaultQueryScope::Active());
  EXPECT_EQ(FaultQueryScope::CurrentQueryId(), 0u);
  {
    FaultQueryScope outer(7);
    EXPECT_TRUE(FaultQueryScope::Active());
    EXPECT_EQ(FaultQueryScope::CurrentQueryId(), 7u);
    {
      FaultQueryScope inner(9);
      EXPECT_EQ(FaultQueryScope::CurrentQueryId(), 9u);
    }
    // Nesting restores the outer context.
    EXPECT_TRUE(FaultQueryScope::Active());
    EXPECT_EQ(FaultQueryScope::CurrentQueryId(), 7u);
  }
  EXPECT_FALSE(FaultQueryScope::Active());
}

// The firing pattern a query sees inside its scope must be a pure function
// of (seed, site, query id, per-query hit index): the same whether the
// query runs alone, after another query, or concurrently with it.
TEST(FaultQueryScopeTest, QueryStreamIsIndependentOfExecutionOrder) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  constexpr int kHits = 200;

  auto pattern_of = [&](uint64_t query_id) {
    FaultQueryScope scope(query_id);
    std::vector<bool> fired;
    for (int i = 0; i < kHits; ++i) {
      fired.push_back(!registry.Hit("store/insert").ok());
    }
    return fired;
  };

  registry.ArmRandom(/*seed=*/0x5C0BE, /*probability=*/0.25);
  const auto q3_alone = pattern_of(3);
  const auto q8_alone = pattern_of(8);
  EXPECT_GT(std::count(q3_alone.begin(), q3_alone.end(), true), 0);
  EXPECT_NE(q3_alone, q8_alone) << "distinct queries get distinct streams";

  // Re-arm (clearing global counters) and run in the opposite order: the
  // global per-site counter now assigns different indices, but the
  // query-scoped streams must not care.
  registry.ArmRandom(/*seed=*/0x5C0BE, /*probability=*/0.25);
  EXPECT_EQ(pattern_of(8), q8_alone);
  EXPECT_EQ(pattern_of(3), q3_alone);

  // And concurrently, racing each other on two threads.
  registry.ArmRandom(/*seed=*/0x5C0BE, /*probability=*/0.25);
  std::vector<bool> q3_threaded, q8_threaded;
  std::thread t3([&] { q3_threaded = pattern_of(3); });
  std::thread t8([&] { q8_threaded = pattern_of(8); });
  t3.join();
  t8.join();
  EXPECT_EQ(q3_threaded, q3_alone);
  EXPECT_EQ(q8_threaded, q8_alone);
}

TEST(FaultQueryScopeTest, UnscopedStreamKeepsTheGlobalCounterBehavior) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  auto pattern = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 100; ++i) {
      fired.push_back(!registry.Hit("store/insert").ok());
    }
    return fired;
  };
  // A scope that opened and closed must leave the historical
  // global-counter stream untouched for later unscoped callers.
  registry.ArmRandom(/*seed=*/77, /*probability=*/0.3);
  const auto reference = pattern();
  registry.ArmRandom(/*seed=*/77, /*probability=*/0.3);
  { FaultQueryScope scope(1); }
  EXPECT_EQ(pattern(), reference);
}

TEST(FaultQueryScopeTest, ArmSiteNthExecutionStaysProcessWide) {
  RegistryGuard guard;
  auto& registry = FaultRegistry::Instance();
  registry.ArmSite("store/insert", /*nth=*/3);
  FaultQueryScope scope(5);
  // Single-shot arming counts process-wide executions even inside a
  // query scope: exactly the third hit fires.
  EXPECT_TRUE(registry.Hit("store/insert").ok());
  EXPECT_TRUE(registry.Hit("store/insert").ok());
  EXPECT_FALSE(registry.Hit("store/insert").ok());
  EXPECT_TRUE(registry.Hit("store/insert").ok());
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Batched-vs-serial equivalence above the span kernels: the
// DecideVerdictBatch contract for every criterion the factory produces
// and for the InstrumentedCriterion wrapper, the certified engine's verdict+tier stability at batch-relevant
// (high/odd) dimensions, BestKnownList::AccessBatch against per-entry
// Access (answers AND stats), and the overlay block enumeration. Batching
// is a scheduling change — any divergence observed here is a bug in a
// batch path, not an acceptable rounding difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dominance/certified.h"
#include "dominance/criterion.h"
#include "dominance/instrumented.h"
#include "index/mutable_ss_tree.h"
#include "obs/metrics.h"
#include "query/best_known_list.h"
#include "query/knn.h"
#include "storage/sphere_store.h"
#include "test_util.h"

namespace hyperdom {
namespace {

const CriterionKind kAllKinds[] = {
    CriterionKind::kMinMax,         CriterionKind::kMbr,
    CriterionKind::kGp,             CriterionKind::kTrigonometric,
    CriterionKind::kHyperbola,      CriterionKind::kNumericOracle,
    CriterionKind::kCertified,
};

class BatchedDominanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchedDominanceTest, DecideVerdictBatchMatchesSerialAllCriteria) {
  const size_t dim = GetParam();
  Rng rng(5100 + dim);
  for (CriterionKind kind : kAllKinds) {
    // The oracle runs a 2-plane minimizer per pair; keep its share small.
    const size_t count = kind == CriterionKind::kNumericOracle ? 24 : 200;
    const auto criterion = MakeCriterion(kind);
    const Hypersphere sa = test::RandomSphere(&rng, dim, 3.0);
    const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);
    SphereStore store(dim);
    store.Reserve(count);
    std::vector<SphereView> sbs;
    for (size_t i = 0; i < count; ++i) {
      // A mix of scales so overlap, MDD-reject, and full-pipeline paths
      // all appear in one block.
      store.Add(test::RandomSphere(&rng, dim, (i % 3 == 0) ? 40.0 : 3.0));
    }
    for (uint32_t i = 0; i < count; ++i) sbs.push_back(store.view(i));

    std::vector<Verdict> batched(count);
    criterion->DecideVerdictBatch(sa.view(), sbs.data(), count, sq.view(),
                                  batched.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batched[i], criterion->DecideVerdict(sa.view(), sbs[i],
                                                     sq.view()))
          << criterion->name() << " dim=" << dim << " candidate " << i;
    }
  }
}

// A fake inner criterion that counts how it is called: verdicts depend only
// on Sb's radius, and its batch entry point never goes through the serial
// one, so the counts show which entry point a wrapper forwarded to.
class CountingCriterion final : public DominanceCriterion {
 public:
  using DominanceCriterion::DecideVerdict;
  using DominanceCriterion::Dominates;
  bool Dominates(SphereView sa, SphereView sb, SphereView sq) const override {
    return DecideVerdict(sa, sb, sq) == Verdict::kDominates;
  }
  Verdict DecideVerdict(SphereView, SphereView sb, SphereView) const override {
    ++serial_calls;
    return Pick(sb);
  }
  void DecideVerdictBatch(SphereView, const SphereView* sbs, size_t count,
                          SphereView, Verdict* out) const override {
    ++batch_calls;
    for (size_t i = 0; i < count; ++i) out[i] = Pick(sbs[i]);
  }
  static Verdict Pick(SphereView sb) {
    if (sb.radius < 2.5) return Verdict::kDominates;
    return sb.radius < 3.5 ? Verdict::kNotDominates : Verdict::kUncertain;
  }
  std::string_view name() const override { return "CountingFake"; }
  bool is_correct() const override { return true; }
  bool is_sound() const override { return true; }

  mutable size_t serial_calls = 0;
  mutable size_t batch_calls = 0;
};

TEST_P(BatchedDominanceTest, InstrumentedCriterionForwardsBatches) {
  const size_t dim = GetParam();
  Rng rng(5150 + dim);
  const size_t count = 90;
  SphereStore store(dim);
  store.Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    store.Add(test::RandomSphere(&rng, dim, (i % 3 == 0) ? 40.0 : 3.0));
  }
  std::vector<SphereView> sbs;
  for (uint32_t i = 0; i < count; ++i) sbs.push_back(store.view(i));
  const Hypersphere sa = test::RandomSphere(&rng, dim, 3.0);
  const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);

  // A wrapped real criterion answers exactly as the bare one.
  for (CriterionKind kind : kAllKinds) {
    const auto bare = MakeCriterion(kind);
    const auto wrapped = MakeInstrumentedCriterion(kind);
    std::vector<Verdict> want(count);
    std::vector<Verdict> got(count);
    bare->DecideVerdictBatch(sa.view(), sbs.data(), count, sq.view(),
                             want.data());
    wrapped->DecideVerdictBatch(sa.view(), sbs.data(), count, sq.view(),
                                got.data());
    EXPECT_EQ(got, want) << bare->name() << " dim=" << dim;
  }

  // The wrapper hands each block to the inner batch entry point, once.
  auto fake = std::make_unique<CountingCriterion>();
  const CountingCriterion* inner = fake.get();
  InstrumentedCriterion wrapped(std::move(fake));
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  auto& registry = obs::MetricsRegistry::Instance();
  auto verdicts = [&registry](std::string_view verdict) {
    return registry
        .GetCounter(std::string(obs::kCriterionVerdicts.name) +
                    "{criterion=\"CountingFake\",verdict=\"" +
                    std::string(verdict) + "\"}")
        ->Value();
  };
  obs::Histogram* latency = registry.GetHistogram(
      obs::kCriterionDecideDuration, "criterion", "CountingFake");
  const uint64_t dominates_before = verdicts("dominates");
  const uint64_t not_dominates_before = verdicts("not_dominates");
  const uint64_t uncertain_before = verdicts("uncertain");
  const uint64_t observations_before = latency->Snapshot().count;
#endif
  size_t expect[3] = {0, 0, 0};
  std::vector<Verdict> out(count);
  const size_t blocks[] = {count, 1, 0, count / 2};
  for (size_t block : blocks) {
    wrapped.DecideVerdictBatch(sa.view(), sbs.data(), block, sq.view(),
                               out.data());
    for (size_t i = 0; i < block; ++i) {
      const Verdict want = CountingCriterion::Pick(sbs[i]);
      EXPECT_EQ(out[i], want) << "candidate " << i;
      ++expect[static_cast<size_t>(want)];
    }
  }
  // An empty block never reaches the inner criterion.
  EXPECT_EQ(inner->batch_calls, 3u);
  EXPECT_EQ(inner->serial_calls, 0u);
  ASSERT_GT(expect[0] * expect[1] * expect[2], 0u)
      << "every verdict kind should appear";
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  const uint64_t total = expect[0] + expect[1] + expect[2];
  EXPECT_EQ(verdicts("dominates") - dominates_before, expect[0]);
  EXPECT_EQ(verdicts("not_dominates") - not_dominates_before, expect[1]);
  EXPECT_EQ(verdicts("uncertain") - uncertain_before, expect[2]);
  // One latency observation per verdict: the histogram count reconciles
  // with hyperdom_criterion_verdicts_total.
  EXPECT_EQ(latency->Snapshot().count - observations_before, total);
#endif
}

TEST_P(BatchedDominanceTest, CertifiedEngineStableAtBatchDims) {
  // The aos_soa_equivalence suite pins the certified engine at dims
  // {2, 3, 10}; this repeats the verdict+tier check at the high and odd
  // dims the batched leaf scans care about.
  const size_t dim = GetParam();
  Rng rng(5200 + dim);
  CertifiedDominance engine;
  SphereStore store(dim);
  const size_t n = 200;
  store.Reserve(3 * n);
  std::vector<Hypersphere> spheres;
  for (size_t i = 0; i < 3 * n; ++i) {
    spheres.push_back(test::RandomSphere(&rng, dim, (i % 5 == 0) ? 0.1 : 4.0));
    store.Add(spheres.back());
  }
  for (size_t t = 0; t < n; ++t) {
    const uint32_t base = static_cast<uint32_t>(3 * t);
    CertifiedTier tier_aos = CertifiedTier::kUnresolved;
    CertifiedTier tier_soa = CertifiedTier::kUnresolved;
    const Verdict aos = engine.Decide(spheres[3 * t], spheres[3 * t + 1],
                                      spheres[3 * t + 2], &tier_aos);
    const Verdict soa =
        engine.Decide(store.view(base), store.view(base + 1),
                      store.view(base + 2), &tier_soa);
    EXPECT_EQ(aos, soa) << "triple " << t << " dim " << dim;
    EXPECT_EQ(tier_aos, tier_soa) << "triple " << t << " dim " << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BatchedDominanceTest,
                         ::testing::Values(2, 3, 8, 10, 64, 67));

// ---------------------------------------------------------------------------
// BestKnownList: AccessBatch vs per-entry Access.

struct ListOutcome {
  std::vector<DataEntry> answers;
  KnnStats stats;
  double distk = 0.0;
};

ListOutcome RunList(const DominanceCriterion* criterion,
                    const Hypersphere& sq, size_t k, KnnPruningMode mode,
                    const std::vector<EntryView>& entries, size_t batch,
                    bool within, double pending_bound) {
  ListOutcome out;
  BestKnownList list(criterion, &sq, k, mode, &out.stats);
  if (batch == 0) {
    for (const EntryView& e : entries) list.Access(e);
  } else {
    for (size_t i = 0; i < entries.size(); i += batch) {
      const size_t n = std::min(batch, entries.size() - i);
      list.AccessBatch(entries.data() + i, n);
    }
  }
  out.distk = list.DistK();
  out.answers =
      within ? list.TakeAnswersWithin(pending_bound) : list.TakeAnswers();
  return out;
}

void ExpectSameOutcome(const ListOutcome& a, const ListOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.distk, b.distk) << label;
  ASSERT_EQ(a.answers.size(), b.answers.size()) << label;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].id, b.answers[i].id) << label << " answer " << i;
    EXPECT_EQ(a.answers[i].sphere, b.answers[i].sphere)
        << label << " answer " << i;
  }
  EXPECT_EQ(a.stats.entries_accessed, b.stats.entries_accessed) << label;
  EXPECT_EQ(a.stats.dominance_checks, b.stats.dominance_checks) << label;
  EXPECT_EQ(a.stats.pruned_case2, b.stats.pruned_case2) << label;
  EXPECT_EQ(a.stats.pruned_case3, b.stats.pruned_case3) << label;
  EXPECT_EQ(a.stats.removed_case1, b.stats.removed_case1) << label;
  EXPECT_EQ(a.stats.uncertain_verdicts, b.stats.uncertain_verdicts) << label;
}

class BestKnownListBatchTest
    : public ::testing::TestWithParam<std::tuple<size_t, KnnPruningMode>> {};

TEST_P(BestKnownListBatchTest, AccessBatchMatchesSerialAccess) {
  const size_t dim = std::get<0>(GetParam());
  const KnnPruningMode mode = std::get<1>(GetParam());
  Rng rng(5300 + dim);
  const size_t n = 600;
  const size_t k = 10;
  SphereStore store(dim);
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.Add(test::RandomSphere(&rng, dim, 2.0));
  }
  std::vector<EntryView> entries;
  for (uint32_t i = 0; i < n; ++i) {
    entries.push_back(EntryView{store.view(i), uint64_t{1000} + i, i});
  }
  const Hypersphere sq = test::RandomSphere(&rng, dim, 1.0);

  for (CriterionKind kind :
       {CriterionKind::kHyperbola, CriterionKind::kCertified}) {
    const auto criterion = MakeCriterion(kind);
    const ListOutcome serial =
        RunList(criterion.get(), sq, k, mode, entries, 0, false, 0.0);
    // Leaf-sized and ragged batch shapes.
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, n}) {
      const ListOutcome batched =
          RunList(criterion.get(), sq, k, mode, entries, batch, false, 0.0);
      ExpectSameOutcome(serial, batched,
                        std::string(criterion->name()) + " batch=" +
                            std::to_string(batch));
    }
    // Best-effort path: the batched TakeAnswersWithin filter.
    const double bound = serial.distk * 0.9;
    const ListOutcome serial_within =
        RunList(criterion.get(), sq, k, mode, entries, 0, true, bound);
    const ListOutcome batched_within =
        RunList(criterion.get(), sq, k, mode, entries, 64, true, bound);
    ExpectSameOutcome(serial_within, batched_within,
                      std::string(criterion->name()) + " within");
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndModes, BestKnownListBatchTest,
    ::testing::Combine(::testing::Values(2, 10, 67),
                       ::testing::Values(KnnPruningMode::kDeferred,
                                         KnnPruningMode::kEager)));

// ---------------------------------------------------------------------------
// Overlay: block enumeration and the batched mutable search path.

TEST(OverlayBatchTest, ForEachExtraBlockMatchesForEachExtra) {
  const size_t dim = 7;  // odd: delta-slab rows on unaligned boundaries
  Rng rng(5400);
  MutableSsTree tree(dim);
  std::vector<Hypersphere> base;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 50; ++i) {
    base.push_back(test::RandomSphere(&rng, dim, 2.0));
    ids.push_back(i);
  }
  ASSERT_TRUE(tree.Build(base, ids).ok());
  // Cross a slab boundary (slab 0 holds 256 rows) and tombstone a few
  // delta rows so visibility filtering is exercised.
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(test::RandomSphere(&rng, dim, 2.0), 100 + i).ok());
  }
  for (uint64_t i = 0; i < 300; i += 9) {
    ASSERT_TRUE(tree.Remove(100 + i).ok());
  }

  const MutableSsTree::ReadView view = tree.Pin();
  std::vector<EntryView> serial;
  view.ForEachExtra([&](const EntryView& e) { serial.push_back(e); });
  std::vector<EntryView> blocked;
  size_t calls = 0;
  view.ForEachExtraBlock([&](const EntryView* rows, size_t count) {
    ++calls;
    blocked.insert(blocked.end(), rows, rows + count);
  });

  EXPECT_GE(calls, size_t{1});
  ASSERT_EQ(serial.size(), blocked.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, blocked[i].id) << "row " << i;
    EXPECT_EQ(serial[i].slot, blocked[i].slot) << "row " << i;
    EXPECT_EQ(serial[i].sphere.center, blocked[i].sphere.center)
        << "row " << i;  // same pointer: same slab storage
    EXPECT_EQ(serial[i].sphere.radius, blocked[i].sphere.radius)
        << "row " << i;
  }
}

TEST(OverlayBatchTest, BatchedMutableSearchMatchesLinearScan) {
  const size_t dim = 10;
  Rng rng(5500);
  MutableSsTree tree(dim);
  std::vector<Hypersphere> base;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 200; ++i) {
    base.push_back(test::RandomSphere(&rng, dim, 2.0));
    ids.push_back(i);
  }
  ASSERT_TRUE(tree.Build(base, ids).ok());
  for (uint64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(tree.Insert(test::RandomSphere(&rng, dim, 2.0), 500 + i).ok());
  }
  for (uint64_t i = 0; i < 200; i += 5) {
    ASSERT_TRUE(tree.Remove(i).ok());
  }

  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);
  KnnOptions options;
  options.k = 12;
  const KnnSearcher searcher(criterion.get(), options);

  const MutableSsTree::ReadView view = tree.Pin();
  std::vector<Hypersphere> live;
  std::vector<uint64_t> live_ids;
  view.CollectLive(&live, &live_ids);

  for (uint64_t qseed = 0; qseed < 8; ++qseed) {
    Rng qrng(5600 + qseed);
    const Hypersphere sq = test::RandomSphere(&qrng, dim, 1.0);
    const KnnResult tree_result = searcher.Search(view.tree(), sq, &view);
    const KnnResult scan_result =
        KnnLinearScan(live, sq, options.k, *criterion);
    ASSERT_EQ(tree_result.answers.size(), scan_result.answers.size())
        << "query " << qseed;
    for (size_t i = 0; i < tree_result.answers.size(); ++i) {
      // The scan's ids index `live`; map them back to external ids.
      EXPECT_EQ(tree_result.answers[i].id,
                live_ids[scan_result.answers[i].id])
          << "query " << qseed << " answer " << i;
    }
  }
}

}  // namespace
}  // namespace hyperdom

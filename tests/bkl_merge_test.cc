// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Pins the merge invariant of BestKnownList::MergeFrom (the scatter-gather
// contract, src/shard/): a candidate stream split arbitrarily across
// 1..8 per-part lists and folded back with MergeFrom yields answers
// BIT-IDENTICAL to feeding the whole stream through one list — same ids,
// same order, same coordinate bits — for both TakeAnswers and the
// best-effort TakeAnswersWithin filter.

#include "query/best_known_list.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "geometry/hypersphere.h"

namespace hyperdom {
namespace {

// Bitwise sphere equality: the contract is bit-identity, not tolerance.
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

class BklMergeTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 3;

  // A candidate pool with substantial overlap so all three maintenance
  // cases (insert, dominance drop, distance drop) fire regularly.
  std::vector<Hypersphere> MakePool(Rng* rng, size_t n) {
    std::vector<Hypersphere> pool;
    pool.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Point c(kDim);
      for (size_t d = 0; d < kDim; ++d) c[d] = rng->Gaussian(0.0, 15.0);
      pool.emplace_back(c, rng->Uniform(0.0, 5.0));
    }
    return pool;
  }

  HyperbolaCriterion criterion_;
  Hypersphere sq_{Point{0.0, 0.0, 0.0}, 1.0};
};

// Feeds `order[i]`-th pool entry to the list that `part_of[i]` selects,
// merges the parts in index order, and finalizes. parts == 1 degenerates
// to the single-list feed that defines the expected answer.
struct SplitRun {
  std::vector<DataEntry> take_answers;
  std::vector<DataEntry> take_within;
};

SplitRun RunSplit(const std::vector<Hypersphere>& pool, SphereStore* store,
                  const std::vector<uint32_t>& slots,
                  const DominanceCriterion* criterion, const Hypersphere* sq,
                  size_t k, const std::vector<size_t>& part_of, size_t parts,
                  double within_bound) {
  (void)pool;
  std::vector<KnnStats> stats(parts);
  std::vector<BestKnownList> lists;
  lists.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    lists.emplace_back(criterion, sq, k, KnnPruningMode::kDeferred, &stats[p]);
  }
  for (size_t i = 0; i < part_of.size(); ++i) {
    lists[part_of[i]].Access(
        store->Resolve(StoredEntry{slots[i], static_cast<uint64_t>(i)}));
  }

  // Two independent merged lists: TakeAnswers* consumes the list, and the
  // contract covers both finalizers over the same merged state.
  SplitRun run;
  for (int variant = 0; variant < 2; ++variant) {
    std::vector<KnnStats> stats2(parts);
    std::vector<BestKnownList> lists2;
    lists2.reserve(parts);
    for (size_t p = 0; p < parts; ++p) {
      lists2.emplace_back(criterion, sq, k, KnnPruningMode::kDeferred,
                          &stats2[p]);
    }
    for (size_t i = 0; i < part_of.size(); ++i) {
      lists2[part_of[i]].Access(
          store->Resolve(StoredEntry{slots[i], static_cast<uint64_t>(i)}));
    }
    KnnStats merged_stats;
    BestKnownList merged(criterion, sq, k, KnnPruningMode::kDeferred,
                         &merged_stats);
    for (size_t p = 0; p < parts; ++p) {
      merged.MergeFrom(std::move(lists2[p]));
    }
    if (variant == 0) {
      run.take_answers = merged.TakeAnswers();
    } else {
      run.take_within = merged.TakeAnswersWithin(within_bound);
    }
  }
  return run;
}

TEST_F(BklMergeTest, SplitStreamsMergeBitIdentical) {
  Rng rng(9001);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 40 + rng.UniformU64(80);
    const size_t k = 1 + rng.UniformU64(8);
    const auto pool = MakePool(&rng, n);
    SphereStore store(kDim);
    store.Reserve(n);
    std::vector<uint32_t> slots;
    for (const auto& s : pool) slots.push_back(store.Add(s));
    // A finite within-bound near the middle of the distance distribution,
    // so TakeAnswersWithin actually filters in some trials.
    const double within = rng.Uniform(5.0, 40.0);

    std::vector<size_t> ones(n, 0);
    const SplitRun expected =
        RunSplit(pool, &store, slots, &criterion_, &sq_, k, ones, 1, within);

    for (size_t parts = 2; parts <= 8; ++parts) {
      // Round-robin split.
      std::vector<size_t> rr(n);
      for (size_t i = 0; i < n; ++i) rr[i] = i % parts;
      SplitRun got = RunSplit(pool, &store, slots, &criterion_, &sq_, k, rr,
                              parts, within);
      ExpectIdentical(got.take_answers, expected.take_answers,
                      "round-robin TakeAnswers parts=" +
                          std::to_string(parts));
      ExpectIdentical(got.take_within, expected.take_within,
                      "round-robin TakeAnswersWithin parts=" +
                          std::to_string(parts));

      // Contiguous split.
      std::vector<size_t> contig(n);
      for (size_t i = 0; i < n; ++i) contig[i] = i * parts / n;
      got = RunSplit(pool, &store, slots, &criterion_, &sq_, k, contig, parts,
                     within);
      ExpectIdentical(got.take_answers, expected.take_answers,
                      "contiguous TakeAnswers parts=" + std::to_string(parts));
      ExpectIdentical(got.take_within, expected.take_within,
                      "contiguous TakeAnswersWithin parts=" +
                          std::to_string(parts));

      // Random split (seeded per trial/parts).
      std::vector<size_t> random(n);
      for (size_t i = 0; i < n; ++i) {
        random[i] = static_cast<size_t>(rng.UniformU64(parts));
      }
      got = RunSplit(pool, &store, slots, &criterion_, &sq_, k, random, parts,
                     within);
      ExpectIdentical(got.take_answers, expected.take_answers,
                      "random TakeAnswers parts=" + std::to_string(parts));
      ExpectIdentical(got.take_within, expected.take_within,
                      "random TakeAnswersWithin parts=" +
                          std::to_string(parts));
    }
  }
}

// Dominance is decided once, after the merge, against the final Sk: an
// entry case-2 dominated by one part's interim Sk must be judged the same
// way whether or not its part ever saw the dominator.
TEST_F(BklMergeTest, CrossPartDominanceDecidedAgainstFinalSk) {
  SphereStore store(kDim);
  store.Reserve(8);
  // The single-list feed sees a dominator at distance 5 and then a
  // dominated entry just behind it, plus two far entries. The split feed
  // puts the dominated entry and the dominator in different parts; both
  // feeds must agree after the merge.
  std::vector<Hypersphere> pool = {
      Hypersphere(Point{5.0, 0.0, 0.0}, 0.5),   // near, dominates the next
      Hypersphere(Point{6.0, 0.0, 0.0}, 0.1),   // case 2 behind it
      Hypersphere(Point{30.0, 0.0, 0.0}, 0.5),  // far
      Hypersphere(Point{31.0, 0.0, 0.0}, 0.5),  // far
  };
  std::vector<uint32_t> slots;
  for (const auto& s : pool) slots.push_back(store.Add(s));

  const size_t k = 1;
  std::vector<size_t> ones(pool.size(), 0);
  const SplitRun expected = RunSplit(pool, &store, slots, &criterion_, &sq_,
                                     k, ones, 1, /*within=*/1e9);
  // Split the dominator and the dominated entry into DIFFERENT parts, so
  // the dominated entry's part never saw its dominator at access time.
  const std::vector<size_t> split = {0, 1, 1, 0};
  const SplitRun got = RunSplit(pool, &store, slots, &criterion_, &sq_, k,
                                split, 2, /*within=*/1e9);
  ExpectIdentical(got.take_answers, expected.take_answers, "cross-part");
  ExpectIdentical(got.take_within, expected.take_within,
                  "cross-part within");
}

// Merging into a non-empty list must behave like continuing the feed:
// MergeFrom is Access-replay, not concatenation.
TEST_F(BklMergeTest, MergeIntoNonEmptyListEqualsContinuedFeed) {
  Rng rng(1234);
  const size_t n = 60;
  const auto pool = MakePool(&rng, n);
  SphereStore store(kDim);
  store.Reserve(n);
  std::vector<uint32_t> slots;
  for (const auto& s : pool) slots.push_back(store.Add(s));
  const size_t k = 3;

  KnnStats single_stats;
  BestKnownList single(&criterion_, &sq_, k, KnnPruningMode::kDeferred,
                       &single_stats);
  for (size_t i = 0; i < n; ++i) {
    single.Access(store.Resolve(StoredEntry{slots[i], i}));
  }
  const auto expected = single.TakeAnswers();

  KnnStats a_stats, b_stats;
  BestKnownList a(&criterion_, &sq_, k, KnnPruningMode::kDeferred, &a_stats);
  BestKnownList b(&criterion_, &sq_, k, KnnPruningMode::kDeferred, &b_stats);
  for (size_t i = 0; i < n / 2; ++i) {
    a.Access(store.Resolve(StoredEntry{slots[i], i}));
  }
  for (size_t i = n / 2; i < n; ++i) {
    b.Access(store.Resolve(StoredEntry{slots[i], i}));
  }
  a.MergeFrom(std::move(b));  // a already holds half the stream
  ExpectIdentical(a.TakeAnswers(), expected, "merge into non-empty");
}

}  // namespace
}  // namespace hyperdom

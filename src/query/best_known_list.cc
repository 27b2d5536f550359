// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/best_known_list.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "geometry/kernel_core.h"

namespace hyperdom {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

BestKnownList::BestKnownList(const DominanceCriterion* criterion,
                             const Hypersphere* sq, size_t k,
                             KnnPruningMode mode, KnnStats* stats)
    : criterion_(criterion), sq_(sq), sq_view_(sq->view()), k_(k),
      mode_(mode), stats_(stats), distk_(kInf) {
  assert(criterion_ != nullptr && sq_ != nullptr && stats_ != nullptr);
  assert(k_ >= 1);
}

void BestKnownList::Access(const EntryView& entry) {
  // One center distance serves both bounds; the combines are the same
  // force-inline spellings MinDist/MaxDist use (geometry/kernel_core.h),
  // so the values are bit-identical to the separate kernel calls.
  const double d = DistSpan(entry.sphere.center, sq_view_.center,
                            entry.sphere.dim);
  AccessBounded(entry,
                kernel_core::CombineMinDist(d, entry.sphere.radius,
                                            sq_view_.radius),
                kernel_core::CombineMaxDist(d, entry.sphere.radius,
                                            sq_view_.radius));
}

void BestKnownList::AccessBatch(const EntryView* entries, size_t count) {
  if (count == 0) return;
  batch_views_.resize(count);
  for (size_t i = 0; i < count; ++i) batch_views_[i] = entries[i].sphere;
  batch_min_.resize(count);
  batch_max_.resize(count);
  BatchedMinMaxDist(batch_views_.data(), count, sq_view_, batch_min_.data(),
                    batch_max_.data());
  // The maintenance rules are inherently serial — each entry is judged
  // against the distk its predecessors produced — so only the distance
  // work above batches. Same accept/prune decisions, same stats, same
  // final list as `count` Access() calls in the same order.
  for (size_t i = 0; i < count; ++i) {
    AccessBounded(entries[i], batch_min_[i], batch_max_[i]);
  }
}

void BestKnownList::AccessBounded(const EntryView& entry, double distmin,
                                  double distmax) {
  ++stats_->entries_accessed;
  if (distmin > distk_) {  // case 3: cheap distance prune (Lemma 9)
    ++stats_->pruned_case3;
    return;
  }
  const Item item{entry, distmin, distmax};
  if (mode_ == KnnPruningMode::kDeferred) {
    // Cases 1 and 2 alike: the candidate waits for the one final-Sk
    // decision. Neither case ever removes an entry at position < k, so
    // distk follows the same sequence as under interim decisions.
    items_.push_back(item);
    PushMaxDist(distmax);
    return;
  }
  // kEager: the paper's Section-6 rules verbatim, against the interim Sk.
  if (items_.size() < k_ || distmax <= distk_) {  // case 1
    InsertSorted(item);
    stats_->removed_case1 += DropDominatedTail();
    return;
  }
  // case 2: the dominance operator decides.
  if (CertainlyDominates(items_[k_ - 1].entry.sphere, entry.sphere)) {
    ++stats_->pruned_case2;
  } else {
    InsertSorted(item);
  }
}

void BestKnownList::PushMaxDist(double distmax) {
  if (kth_.size() < k_) {
    kth_.push_back(distmax);
    std::push_heap(kth_.begin(), kth_.end());
  } else if (distmax < kth_.front()) {
    std::pop_heap(kth_.begin(), kth_.end());
    kth_.back() = distmax;
    std::push_heap(kth_.begin(), kth_.end());
  }
  if (kth_.size() == k_) distk_ = kth_.front();
}

void BestKnownList::InsertSorted(const Item& item) {
  auto pos = std::upper_bound(
      items_.begin(), items_.end(), item.maxdist,
      [](double v, const Item& it) { return v < it.maxdist; });
  items_.insert(pos, item);
  if (items_.size() >= k_) distk_ = items_[k_ - 1].maxdist;
}

void BestKnownList::MergeFrom(BestKnownList&& other) {
  assert(criterion_ == other.criterion_);
  assert(k_ == other.k_ && mode_ == other.mode_);
  // Ascending MaxDist tightens distk soonest, so the most donor candidates
  // fall to case 3 and skip the final filter.
  other.SortByMaxDist();
  for (const Item& item : other.items_) {
    AccessBounded(item.entry, item.mindist, item.maxdist);
  }
  other.items_.clear();
  other.kth_.clear();
  other.distk_ = kInf;
}

void BestKnownList::SortByMaxDist() {
  std::stable_sort(items_.begin(), items_.end(),
                   [](const Item& a, const Item& b) {
                     return a.maxdist < b.maxdist;
                   });
}

void BestKnownList::FilterFinal() {
  if (mode_ == KnnPruningMode::kEager) {
    stats_->removed_case1 += DropDominatedTail();
    return;
  }
  SortByMaxDist();
  stats_->pruned_case2 += DropDominatedTail();
}

std::vector<DataEntry> BestKnownList::TakeAnswers() {
  FilterFinal();
  std::vector<DataEntry> out;
  out.reserve(items_.size());
  for (const Item& item : items_) {
    out.push_back(DataEntry{MaterializeSphere(item.entry.sphere),
                            item.entry.id});
  }
  return out;
}

std::vector<DataEntry> BestKnownList::TakeAnswersWithin(
    double pending_bound) {
  const double certain = std::min(distk_, pending_bound);
  FilterFinal();
  std::vector<DataEntry> out;
  for (const Item& item : items_) {
    if (item.maxdist <= certain) {
      out.push_back(DataEntry{MaterializeSphere(item.entry.sphere),
                              item.entry.id});
    }
  }
  return out;
}

bool BestKnownList::CertainlyDominates(const SphereView& sa,
                                       const SphereView& sb) {
  ++stats_->dominance_checks;
  const Verdict v = criterion_->DecideVerdict(sa, sb, sq_view_);
  if (v == Verdict::kUncertain) {
    // Conservative direction: an uncertain dominance must never prune —
    // keeping the entry can only add work, dropping it can lose an answer.
    ++stats_->uncertain_verdicts;
    return false;
  }
  return v == Verdict::kDominates;
}

size_t BestKnownList::DropDominatedTail() {
  if (items_.size() <= k_) return 0;
  const SphereView sk = items_[k_ - 1].entry.sphere;
  const size_t tail = items_.size() - k_;
  batch_views_.resize(tail);
  for (size_t i = 0; i < tail; ++i) {
    batch_views_[i] = items_[k_ + i].entry.sphere;
  }
  batch_verdicts_.resize(tail);
  criterion_->DecideVerdictBatch(sk, batch_views_.data(), tail, sq_view_,
                                 batch_verdicts_.data());
  stats_->dominance_checks += tail;
  auto keep = items_.begin() + static_cast<std::ptrdiff_t>(k_);
  for (size_t i = 0; i < tail; ++i) {
    const Verdict v = batch_verdicts_[i];
    if (v == Verdict::kUncertain) ++stats_->uncertain_verdicts;
    if (v != Verdict::kDominates) *keep++ = items_[k_ + i];
  }
  const size_t dropped = static_cast<size_t>(items_.end() - keep);
  items_.erase(keep, items_.end());
  return dropped;
}

}  // namespace hyperdom

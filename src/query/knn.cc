// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/knn.h"

#include <algorithm>
#include <cassert>

#include "query/knn_metrics.h"
#include "query/knn_traversal.h"
#include "storage/epoch.h"

namespace hyperdom {

KnnSearcher::KnnSearcher(const DominanceCriterion* criterion,
                         KnnOptions options)
    : criterion_(criterion), options_(options) {
  assert(criterion_ != nullptr);
  assert(options_.k >= 1);
}

KnnResult KnnSearcher::Search(const SsTree& tree, const Hypersphere& sq) const {
  return Search(tree, sq, nullptr);
}

void KnnSearchInto(const SsTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, const SearchOverlay* overlay,
                   BestKnownList* list, KnnStats* stats,
                   TraversalGuard* guard) {
  knn_internal::TraverseSsTree(tree, sq, strategy, overlay, list, stats,
                               guard);
}

KnnResult KnnSearcher::Search(const SsTree& tree, const Hypersphere& sq,
                              const SearchOverlay* overlay) const {
  // Pins the reclamation epoch for the whole query: any store version the
  // overlay references stays alive until we return (storage/epoch.h).
  // Nested guards are cheap, so a caller may already hold one.
  EpochManager::Guard epoch_guard;
  KnnQueryRecorder recorder;
  KnnResult result;
  BestKnownList list(criterion_, &sq, options_.k, options_.pruning_mode,
                     &result.stats);
  TraversalGuard guard(options_.deadline);
  KnnSearchInto(tree, sq, options_.strategy, overlay, &list, &result.stats,
                &guard);
  knn_internal::Finalize(guard.expired(), guard.pending_bound(), &list,
                         &result);
  recorder.Publish(result);
  return result;
}

KnnResult KnnLinearScan(const std::vector<Hypersphere>& data,
                        const Hypersphere& sq, size_t k,
                        const DominanceCriterion& criterion) {
  assert(k >= 1);
  KnnResult result;
  // Both passes of the scan are batched: the MaxDist ranking sweep and the
  // final-Sk dominance filter each evaluate every entry unconditionally,
  // so they run through the batched kernels with bit-identical values.
  std::vector<SphereView> views;
  views.reserve(data.size());
  for (const auto& s : data) views.push_back(s.view());
  std::vector<double> maxdists(data.size());
  BatchedMaxDist(views.data(), views.size(), sq.view(), maxdists.data());
  std::vector<std::pair<double, uint64_t>> by_maxdist;
  by_maxdist.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    by_maxdist.emplace_back(maxdists[i], static_cast<uint64_t>(i));
  }
  std::sort(by_maxdist.begin(), by_maxdist.end());

  if (data.size() <= k) {
    for (const auto& [maxdist, id] : by_maxdist) {
      result.answers.push_back(DataEntry{data[id], id});
    }
    result.stats.entries_accessed = data.size();
    return result;
  }

  const Hypersphere& sk = data[by_maxdist[k - 1].second];
  const size_t n = by_maxdist.size();
  std::vector<SphereView> candidates;
  candidates.reserve(n);
  for (const auto& [maxdist, id] : by_maxdist) {
    candidates.push_back(data[id].view());
  }
  std::vector<Verdict> verdicts(n);
  criterion.DecideVerdictBatch(sk.view(), candidates.data(), n, sq.view(),
                               verdicts.data());
  result.stats.entries_accessed += n;
  result.stats.dominance_checks += n;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = by_maxdist[i].second;
    // Three-valued filter: an uncertain verdict keeps the entry (only a
    // certified kDominates may drop an answer).
    const Verdict v = verdicts[i];
    if (v == Verdict::kUncertain) ++result.stats.uncertain_verdicts;
    if (v != Verdict::kDominates) {
      result.answers.push_back(DataEntry{data[id], id});
    } else {
      ++result.stats.pruned_case2;
    }
  }
  return result;
}

}  // namespace hyperdom

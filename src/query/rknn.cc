// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/rknn.h"

#include <algorithm>
#include <cassert>

#include "storage/epoch.h"

namespace hyperdom {

RknnResult RknnFilter(const std::vector<Hypersphere>& data,
                      const Hypersphere& sq, size_t k,
                      const DominanceCriterion& criterion,
                      const Deadline& deadline) {
  assert(k >= 1);
  EpochManager::Guard epoch_guard;  // one pin for the whole RkNN pipeline
  RknnResult result;
  TraversalGuard guard(deadline);
  for (size_t cand = 0; cand < data.size(); ++cand) {
    // Cancellation is at candidate granularity: a candidate is either
    // fully counted or not reported at all, so a partial answer set is
    // still a subset of the exact one.
    if (guard.ShouldStop(cand)) {
      result.stats.candidates_deadline_skipped += data.size() - cand;
      break;
    }
    const Hypersphere& s = data[cand];
    // Probe the other objects nearest to the candidate first: they are the
    // likeliest dominators, so the k-count saturates early.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(data.size() - 1);
    for (size_t other = 0; other < data.size(); ++other) {
      if (other == cand) continue;
      order.emplace_back(MaxDist(data[other], s), other);
    }
    std::sort(order.begin(), order.end());

    size_t dominators = 0;
    for (const auto& [maxdist, other] : order) {
      // Once even the closest possible placement of Sq beats `maxdist`,
      // no further object can dominate Sq w.r.t. s; stop scanning.
      if (maxdist >= MaxDist(sq, s)) break;
      ++result.stats.dominance_checks;
      if (criterion.Dominates(data[other], sq, s)) {
        if (++dominators >= k) break;
      }
    }
    if (dominators >= k) {
      ++result.stats.candidates_pruned;
    } else {
      result.answers.push_back(static_cast<uint64_t>(cand));
    }
  }
  if (guard.expired()) result.completeness = Completeness::kBestEffort;
  return result;
}

}  // namespace hyperdom

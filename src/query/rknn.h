// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Reverse kNN on hyperspheres — one of the dominance-powered applications
// named in the paper's Sections 1 and 6 ("we can discard Sb if Sa dominates
// Sq wrt Sb").
//
// Semantics under uncertainty: an object S is a *possible* RkNN of the
// query Sq unless at least k other objects are provably closer to S than Sq
// is — i.e. unless k distinct objects S' satisfy Dom(S', Sq, S). Note the
// role reversal: the candidate S acts as the query sphere of the dominance
// test. With a correct criterion the returned set is a superset of the true
// possible-RkNN set; with Hyperbola it is exact w.r.t. this filter.

#ifndef HYPERDOM_QUERY_RKNN_H_
#define HYPERDOM_QUERY_RKNN_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "dominance/criterion.h"

namespace hyperdom {

/// Counters describing one RkNN evaluation.
struct RknnStats {
  uint64_t dominance_checks = 0;
  uint64_t candidates_pruned = 0;
  uint64_t candidates_deadline_skipped = 0;
};

/// Result of an RkNN query: indices into the dataset.
/// Deadlines cancel at candidate granularity — a candidate's dominator
/// count is never cut short — so every reported answer is individually
/// certain and a kBestEffort answer set is a subset of the exact one.
struct RknnResult {
  std::vector<uint64_t> answers;
  Completeness completeness = Completeness::kExact;
  RknnStats stats;
};

/// \brief Filter-based reverse-kNN: keep every object for which fewer than
/// `k` other objects dominate `sq` w.r.t. it.
///
/// O(N^2) worst case but each candidate short-circuits after k dominators;
/// candidates are tested against neighbors in ascending MaxDist order so
/// the short-circuit triggers early. The deadline's node budget counts
/// candidates processed (this scan expands no index nodes).
RknnResult RknnFilter(const std::vector<Hypersphere>& data,
                      const Hypersphere& sq, size_t k,
                      const DominanceCriterion& criterion,
                      const Deadline& deadline = Deadline::Unbounded());

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_RKNN_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/range.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/knn_traversal.h"
#include "storage/epoch.h"

namespace hyperdom {

namespace {

// The range query's list for the DF driver (query/knn_traversal.h): the
// fixed radius stands in for distk, and each accessed entry is tested for
// membership on its own, with MinDist and MaxDist.
class RangeCollector {
 public:
  RangeCollector(const Hypersphere& sq, double range, RangeResult* result)
      : sq_(sq.view()), range_(range), result_(result) {}

  double DistK() const { return range_; }

  void AccessBatch(const EntryView* rows, size_t n) {
    result_->stats.entries_accessed += n;
    for (size_t i = 0; i < n; ++i) {
      const SphereView s = rows[i].sphere;
      if (MinDist(s, sq_) <= range_) {
        result_->possible.push_back(
            DataEntry{MaterializeSphere(s), rows[i].id});
        if (MaxDist(s, sq_) <= range_) {
          result_->certain.push_back(result_->possible.back());
        }
      }
    }
  }

 private:
  SphereView sq_;
  double range_;
  RangeResult* result_;
};

void SortById(std::vector<DataEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const DataEntry& a, const DataEntry& b) { return a.id < b.id; });
}

}  // namespace

RangeResult RangeSearch(const SsTree& tree, const Hypersphere& sq,
                        double range, const Deadline& deadline,
                        const SearchOverlay* overlay) {
  assert(range >= 0.0);
  // Pins the reclamation epoch: overlay-referenced store versions stay
  // alive for the duration of the query (storage/epoch.h).
  EpochManager::Guard epoch_guard;
  HYPERDOM_SPAN(span, "range/query");
  HYPERDOM_COUNTER_INC(obs::kRangeQueries);
  RangeResult result;
  RangeCollector collector(sq, range, &result);
  TraversalGuard guard(deadline);
  knn_internal::TraverseSsTree(tree, sq, SearchStrategy::kDepthFirst, overlay,
                               &collector, &result.stats, &guard);
  if (guard.expired()) result.completeness = Completeness::kBestEffort;
  // Answers arrive in DF's visit order, which depends on the tree layout;
  // id order is the canonical one, and the one ShardedRange returns.
  SortById(&result.certain);
  SortById(&result.possible);
  HYPERDOM_SPAN_ANNOTATE(span, "nodes_visited", result.stats.nodes_visited);
  HYPERDOM_SPAN_ANNOTATE(span, "certain",
                         static_cast<uint64_t>(result.certain.size()));
  return result;
}

RangeResult RangeLinearScan(const std::vector<Hypersphere>& data,
                            const Hypersphere& sq, double range) {
  assert(range >= 0.0);
  RangeResult result;
  for (size_t i = 0; i < data.size(); ++i) {
    ++result.stats.entries_accessed;
    if (MinDist(data[i], sq) <= range) {
      result.possible.push_back(DataEntry{data[i], static_cast<uint64_t>(i)});
      if (MaxDist(data[i], sq) <= range) {
        result.certain.push_back(DataEntry{data[i], static_cast<uint64_t>(i)});
      }
    }
  }
  return result;
}

}  // namespace hyperdom

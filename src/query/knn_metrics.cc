// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/knn_metrics.h"

#include <chrono>
#include <string_view>

#include "obs/metrics.h"

namespace hyperdom {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KnnQueryRecorder::KnnQueryRecorder()
    : start_ns_(NowNs()), span_("knn/query") {
  if (span_.active()) span_.Annotate("index", std::string_view("ss"));
}

void KnnQueryRecorder::Publish(const KnnResult& result) {
  const uint64_t elapsed_ns = static_cast<uint64_t>(NowNs() - start_ns_);
  const KnnStats& s = result.stats;
  const bool best_effort = result.completeness == Completeness::kBestEffort;
  HYPERDOM_COUNTER_INC_L(obs::kKnnQueries, "index", "ss");
  // Added on every query, so the series is exported from the first one.
  HYPERDOM_COUNTER_ADD_L(obs::kKnnBestEffort, "index", "ss",
                         best_effort ? 1 : 0);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnNodesVisited, "index", "ss",
                         s.nodes_visited);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnNodesPruned, "index", "ss", s.nodes_pruned);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnEntriesAccessed, "index", "ss",
                         s.entries_accessed);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnDominanceChecks, "index", "ss",
                         s.dominance_checks);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnPrunedCase2, "index", "ss", s.pruned_case2);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnPrunedCase3, "index", "ss", s.pruned_case3);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnRemovedCase1, "index", "ss",
                         s.removed_case1);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnUncertainVerdicts, "index", "ss",
                         s.uncertain_verdicts);
  HYPERDOM_COUNTER_ADD_L(obs::kKnnDeadlineSkippedNodes, "index", "ss",
                         s.nodes_deadline_skipped);
  HYPERDOM_HISTOGRAM_RECORD_L(obs::kKnnQueryDuration, "index", "ss",
                              elapsed_ns);
  if (span_.active()) {
    span_.Annotate("nodes_visited", s.nodes_visited);
    span_.Annotate("nodes_pruned", s.nodes_pruned);
    span_.Annotate("entries_accessed", s.entries_accessed);
    span_.Annotate("dominance_checks", s.dominance_checks);
    span_.Annotate("nodes_deadline_skipped", s.nodes_deadline_skipped);
    span_.Annotate("answers", static_cast<uint64_t>(result.answers.size()));
    span_.Annotate("best_effort", best_effort ? std::string_view("true")
                                              : std::string_view("false"));
  }
}

}  // namespace hyperdom

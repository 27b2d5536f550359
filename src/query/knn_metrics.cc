// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/knn_metrics.h"

#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace hyperdom {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The registry handles for one index label, resolved once per tag (the tag
// is a runtime value, so the macros' per-call-site statics don't apply).
struct KnnInstruments {
  obs::Counter* queries;
  obs::Counter* best_effort;
  obs::Counter* nodes_visited;
  obs::Counter* nodes_pruned;
  obs::Counter* entries_accessed;
  obs::Counter* dominance_checks;
  obs::Counter* pruned_case2;
  obs::Counter* pruned_case3;
  obs::Counter* removed_case1;
  obs::Counter* uncertain_verdicts;
  obs::Counter* deadline_skipped;
  obs::Histogram* duration;
};

const KnnInstruments& InstrumentsFor(std::string_view tag) {
  static std::mutex mu;
  static std::map<std::string, KnnInstruments, std::less<>>* const cache =
      new std::map<std::string, KnnInstruments, std::less<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(tag);
  if (it == cache->end()) {
    auto& reg = obs::MetricsRegistry::Instance();
    KnnInstruments in;
    in.queries = reg.GetCounter(obs::kKnnQueries, "index", tag);
    in.best_effort = reg.GetCounter(obs::kKnnBestEffort, "index", tag);
    in.nodes_visited = reg.GetCounter(obs::kKnnNodesVisited, "index", tag);
    in.nodes_pruned = reg.GetCounter(obs::kKnnNodesPruned, "index", tag);
    in.entries_accessed =
        reg.GetCounter(obs::kKnnEntriesAccessed, "index", tag);
    in.dominance_checks =
        reg.GetCounter(obs::kKnnDominanceChecks, "index", tag);
    in.pruned_case2 = reg.GetCounter(obs::kKnnPrunedCase2, "index", tag);
    in.pruned_case3 = reg.GetCounter(obs::kKnnPrunedCase3, "index", tag);
    in.removed_case1 = reg.GetCounter(obs::kKnnRemovedCase1, "index", tag);
    in.uncertain_verdicts =
        reg.GetCounter(obs::kKnnUncertainVerdicts, "index", tag);
    in.deadline_skipped =
        reg.GetCounter(obs::kKnnDeadlineSkippedNodes, "index", tag);
    in.duration = reg.GetHistogram(obs::kKnnQueryDuration, "index", tag);
    it = cache->emplace(std::string(tag), in).first;
  }
  return it->second;
}

}  // namespace

KnnQueryRecorder::KnnQueryRecorder(std::string_view index_tag)
    : tag_(index_tag), start_ns_(NowNs()), span_("knn/query") {
  if (span_.active()) span_.Annotate("index", index_tag);
}

void KnnQueryRecorder::Publish(const KnnResult& result) {
  const uint64_t elapsed_ns = static_cast<uint64_t>(NowNs() - start_ns_);
  const KnnStats& s = result.stats;
  const KnnInstruments& in = InstrumentsFor(tag_);
  in.queries->Add(1);
  if (result.completeness == Completeness::kBestEffort) {
    in.best_effort->Add(1);
  }
  in.nodes_visited->Add(s.nodes_visited);
  in.nodes_pruned->Add(s.nodes_pruned);
  in.entries_accessed->Add(s.entries_accessed);
  in.dominance_checks->Add(s.dominance_checks);
  in.pruned_case2->Add(s.pruned_case2);
  in.pruned_case3->Add(s.pruned_case3);
  in.removed_case1->Add(s.removed_case1);
  in.uncertain_verdicts->Add(s.uncertain_verdicts);
  in.deadline_skipped->Add(s.nodes_deadline_skipped);
  in.duration->Record(elapsed_ns);
  if (span_.active()) {
    span_.Annotate("nodes_visited", s.nodes_visited);
    span_.Annotate("nodes_pruned", s.nodes_pruned);
    span_.Annotate("entries_accessed", s.entries_accessed);
    span_.Annotate("dominance_checks", s.dominance_checks);
    span_.Annotate("nodes_deadline_skipped", s.nodes_deadline_skipped);
    span_.Annotate("answers", static_cast<uint64_t>(result.answers.size()));
    span_.Annotate("best_effort",
                   result.completeness == Completeness::kBestEffort
                       ? std::string_view("true")
                       : std::string_view("false"));
  }
}

}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/index_metrics.h"

#include <chrono>

#include "obs/metrics.h"

namespace hyperdom {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IndexBuildRecorder::IndexBuildRecorder(std::string_view index_tag,
                                       std::string_view method)
    : tag_(index_tag), start_ns_(NowNs()), span_("index/build") {
  if (span_.active()) {
    span_.Annotate("index", index_tag);
    span_.Annotate("method", method);
  }
}

void IndexBuildRecorder::Finish(size_t entries) {
  const uint64_t elapsed_ns = static_cast<uint64_t>(NowNs() - start_ns_);
  // Builds are rare (one per index per run), so resolving the labelled
  // handles through the registry each time is fine.
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter(obs::kIndexBuilds, "index", tag_)->Add(1);
  reg.GetHistogram(obs::kIndexBuildDuration, "index", tag_)
      ->Record(elapsed_ns);
  reg.GetGauge(obs::kIndexSize, "index", tag_)
      ->Set(static_cast<double>(entries));
  if (span_.active()) {
    span_.Annotate("entries", static_cast<uint64_t>(entries));
  }
}

}  // namespace hyperdom

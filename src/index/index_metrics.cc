// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/index_metrics.h"

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

IndexBuildRecorder::IndexBuildRecorder()
    : start_ns_(NowNs()), span_("index/build") {
  if (span_.active()) {
    span_.Annotate("index", std::string_view("ss"));
    span_.Annotate("method", std::string_view("str_pack"));
  }
}

void IndexBuildRecorder::Finish(size_t entries) {
  const uint64_t elapsed_ns = static_cast<uint64_t>(NowNs() - start_ns_);
  HYPERDOM_COUNTER_INC_L(obs::kIndexBuilds, "index", "ss");
  HYPERDOM_HISTOGRAM_RECORD_L(obs::kIndexBuildDuration, "index", "ss",
                              elapsed_ns);
  HYPERDOM_GAUGE_SET_L(obs::kIndexSize, "index", "ss",
                       static_cast<double>(entries));
  if (span_.active()) {
    span_.Annotate("entries", static_cast<uint64_t>(entries));
  }
}

}  // namespace hyperdom

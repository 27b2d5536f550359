// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Per-build observability for the SS-tree: an IndexBuildRecorder opens an
// "index/build" span (index="ss", method="str_pack": SsTree::BulkLoadStr's
// top-down bulk load, named after the STR packing it replaced), times the
// build, and on Finish() publishes hyperdom_index_builds_total{index="ss"},
// hyperdom_index_build_duration_ns{index="ss"} and the
// hyperdom_index_size_entries{index="ss"} gauge. Builds that fail (Status
// error) record the span but not the success counters.

#ifndef HYPERDOM_INDEX_INDEX_METRICS_H_
#define HYPERDOM_INDEX_INDEX_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "obs/trace.h"

namespace hyperdom {

/// \brief RAII per-build instrumentation.
class IndexBuildRecorder {
 public:
  IndexBuildRecorder();

  /// Publishes the success counters; call once when the build succeeded.
  void Finish(size_t entries);

 private:
  int64_t start_ns_ = 0;
  obs::Span span_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_INDEX_METRICS_H_

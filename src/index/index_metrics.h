// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Per-build observability for the three index structures: an
// IndexBuildRecorder opens an "index/build" span, times the build, and on
// Finish() publishes hyperdom_index_builds_total{index=},
// hyperdom_index_build_duration_ns{index=} and the
// hyperdom_index_size_entries{index=} gauge. Builds that fail (Status
// error) record the span but not the success counters.

#ifndef HYPERDOM_INDEX_INDEX_METRICS_H_
#define HYPERDOM_INDEX_INDEX_METRICS_H_

#include <cstddef>
#include <string_view>

#include "obs/trace.h"

namespace hyperdom {

/// \brief RAII per-build instrumentation.
///
/// `index_tag` labels the metrics ("ss"|"rstar"|"vp"); `method`
/// distinguishes build strategies in the span ("bulk_load": insertion one
/// by one; "str_pack": SsTree::BulkLoadStr's top-down bulk load, named
/// after the STR packing it replaced; "build").
class IndexBuildRecorder {
 public:
  IndexBuildRecorder(std::string_view index_tag, std::string_view method);

  /// Publishes the success counters; call once when the build succeeded.
  void Finish(size_t entries);

 private:
  std::string_view tag_;
  int64_t start_ns_ = 0;
  obs::Span span_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_INDEX_METRICS_H_

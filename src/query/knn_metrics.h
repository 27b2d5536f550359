// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Per-query observability for the kNN searchers: one KnnQueryRecorder per
// query opens a "knn/query" span, times the query, and publishes the
// KnnStats counters into the metrics registry under the index's label
// (index="ss"|"rstar"|"vp"). The span is annotated with the same
// counter values that feed the registry, so traces and metrics reconcile
// exactly by construction.

#ifndef HYPERDOM_QUERY_KNN_METRICS_H_
#define HYPERDOM_QUERY_KNN_METRICS_H_

#include <string_view>

#include "obs/trace.h"
#include "query/knn_types.h"

namespace hyperdom {

/// \brief RAII per-query instrumentation.
///
/// Construct at the top of a searcher with a stable index tag; call
/// Publish(result) once, just before returning the result. Queries that
/// return without Publish (not a path the searchers have) record the span
/// but no counters.
class KnnQueryRecorder {
 public:
  explicit KnnQueryRecorder(std::string_view index_tag);

  /// Publishes `result.stats` to the registry and annotates the span.
  void Publish(const KnnResult& result);

 private:
  std::string_view tag_;
  int64_t start_ns_ = 0;
  obs::Span span_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_METRICS_H_

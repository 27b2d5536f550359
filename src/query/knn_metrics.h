// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Per-query observability for the kNN searcher: one KnnQueryRecorder per
// query opens a "knn/query" span, times the query, and publishes the
// KnnStats counters into the metrics registry under index="ss". The span
// is annotated with the same counter values that feed the registry, so
// traces and metrics reconcile exactly by construction.

#ifndef HYPERDOM_QUERY_KNN_METRICS_H_
#define HYPERDOM_QUERY_KNN_METRICS_H_

#include <cstdint>

#include "obs/trace.h"
#include "query/knn_types.h"

namespace hyperdom {

/// \brief RAII per-query instrumentation.
///
/// Construct at the top of the searcher; call Publish(result) once, just
/// before returning the result. Queries that return without Publish (not a
/// path the searcher has) record the span but no counters.
class KnnQueryRecorder {
 public:
  KnnQueryRecorder();

  /// Publishes `result.stats` to the registry and annotates the span.
  void Publish(const KnnResult& result);

 private:
  int64_t start_ns_ = 0;
  obs::Span span_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_METRICS_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The two experiment drivers shared by every benchmark binary: the
// dominance-operator experiment of Section 7.1 and the kNN experiment of
// Section 7.2. Each returns printable rows; the bench binaries own the
// dataset choice and the parameter sweep.

#ifndef HYPERDOM_EVAL_EXPERIMENT_H_
#define HYPERDOM_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "dominance/criterion.h"
#include "query/knn.h"

namespace hyperdom {

/// One line of a Section 7.1 figure: a criterion's time/precision/recall.
struct DominanceExperimentRow {
  std::string criterion;
  double nanos_per_query = 0.0;
  double precision_pct = 0.0;
  double recall_pct = 0.0;
};

/// Protocol knobs (paper defaults: 10,000 queries, averaged over 10 runs).
struct DominanceExperimentConfig {
  size_t workload_size = 10'000;
  int repeats = 10;
  uint64_t seed = 0xD0117ULL;
  /// Criteria to evaluate, default = the paper's five (Table 1 order).
  std::vector<CriterionKind> criteria = PaperCriteria();
};

/// \brief Runs the dominance experiment on `data`: builds the random-triple
/// workload, uses Hyperbola as ground truth, and measures every criterion.
std::vector<DominanceExperimentRow> RunDominanceExperiment(
    const std::vector<Hypersphere>& data,
    const DominanceExperimentConfig& config);

/// One line of a Section 7.2 figure: an algorithm's query time/precision.
struct KnnExperimentRow {
  std::string algorithm;  ///< e.g. "HS(Hyper)", "DF(MinMax)"
  double millis_per_query = 0.0;
  double precision_pct = 0.0;
  double recall_pct = 0.0;  ///< 100 for every correct criterion
};

/// Protocol knobs for the kNN experiment.
struct KnnExperimentConfig {
  size_t k = 10;
  size_t num_queries = 20;
  uint64_t seed = 0x5EED0B22ULL;
  /// Worker threads for the query workload (0 = hardware concurrency).
  /// Results are bit-identical at any value; only wall time changes.
  size_t threads = 1;
  /// Pruning criteria (the paper omits Trigonometric here: an incorrect
  /// criterion can drop true kNN answers).
  std::vector<CriterionKind> criteria = {
      CriterionKind::kHyperbola, CriterionKind::kMinMax, CriterionKind::kMbr,
      CriterionKind::kGp};
  std::vector<SearchStrategy> strategies = {SearchStrategy::kBestFirst,
                                            SearchStrategy::kDepthFirst};
};

/// \brief Runs the kNN experiment: builds one SS-tree over `data`, issues
/// the query workload with every (strategy, criterion) combination, and
/// scores each against the exact Definition-2 answer (linear scan with
/// Hyperbola).
std::vector<KnnExperimentRow> RunKnnExperiment(
    const std::vector<Hypersphere>& data, const KnnExperimentConfig& config);

/// Short display label, e.g. ("HS", kHyperbola) -> "HS(Hyper)".
std::string KnnAlgorithmLabel(SearchStrategy strategy, CriterionKind kind);

}  // namespace hyperdom

#endif  // HYPERDOM_EVAL_EXPERIMENT_H_

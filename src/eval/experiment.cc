// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "eval/experiment.h"

#include <algorithm>
#include <unordered_set>

#include "common/stopwatch.h"
#include "eval/measures.h"
#include "eval/workload.h"
#include "exec/batch.h"
#include "index/ss_tree.h"

namespace hyperdom {

std::vector<DominanceExperimentRow> RunDominanceExperiment(
    const std::vector<Hypersphere>& data,
    const DominanceExperimentConfig& config) {
  HYPERDOM_SCOPED_TIMER_L(run_timer, obs::kExperimentDuration, "phase",
                          "dominance");
  const std::vector<DominanceQuery> workload =
      MakeDominanceWorkload(data, config.workload_size, config.seed);

  // Ground truth per the paper: Hyperbola ("the only algorithm which is
  // both correct and sound").
  const auto hyperbola = MakeCriterion(CriterionKind::kHyperbola);
  const std::vector<bool> truth = RunCriterion(*hyperbola, workload);

  std::vector<DominanceExperimentRow> rows;
  rows.reserve(config.criteria.size());
  for (CriterionKind kind : config.criteria) {
    const auto criterion = MakeCriterion(kind);
    DominanceExperimentRow row;
    row.criterion = std::string(criterion->name());
    row.nanos_per_query =
        TimeCriterionNanos(*criterion, workload, config.repeats);
    const ConfusionCounts counts =
        EvaluateCriterion(*criterion, workload, truth);
    row.precision_pct = counts.PrecisionPercent();
    row.recall_pct = counts.RecallPercent();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string KnnAlgorithmLabel(SearchStrategy strategy, CriterionKind kind) {
  std::string label =
      strategy == SearchStrategy::kBestFirst ? "HS(" : "DF(";
  switch (kind) {
    case CriterionKind::kHyperbola:
      label += "Hyper";
      break;
    case CriterionKind::kMinMax:
      label += "MinMax";
      break;
    case CriterionKind::kMbr:
      label += "MBR";
      break;
    case CriterionKind::kGp:
      label += "GP";
      break;
    default:
      label += std::string(CriterionKindName(kind));
      break;
  }
  label += ")";
  return label;
}

std::vector<KnnExperimentRow> RunKnnExperiment(
    const std::vector<Hypersphere>& data, const KnnExperimentConfig& config) {
  HYPERDOM_SCOPED_TIMER_L(run_timer, obs::kExperimentDuration, "phase",
                          "knn");
  SsTree tree(data.empty() ? 0 : data.front().dim());
  Status st = tree.BulkLoadStr(data);
  (void)st;  // generated data is well-formed; surfaced via tests otherwise

  const std::vector<Hypersphere> queries =
      MakeKnnQueries(data, config.num_queries, config.seed);

  // Exact Definition-2 ground truth per query, by linear scan + Hyperbola.
  const auto exact = MakeCriterion(CriterionKind::kHyperbola);
  std::vector<std::unordered_set<uint64_t>> truth_sets;
  truth_sets.reserve(queries.size());
  for (const auto& sq : queries) {
    const KnnResult exact_result =
        KnnLinearScan(data, sq, config.k, *exact);
    std::unordered_set<uint64_t> ids;
    for (const auto& e : exact_result.answers) ids.insert(e.id);
    truth_sets.push_back(std::move(ids));
  }

  std::vector<KnnExperimentRow> rows;
  for (SearchStrategy strategy : config.strategies) {
    for (CriterionKind kind : config.criteria) {
      const auto criterion = MakeCriterion(kind);
      KnnOptions options;
      options.k = config.k;
      options.strategy = strategy;
      BatchOptions exec;
      exec.threads = config.threads;
      const BatchKnnResult batch =
          BatchKnn(tree, queries, *criterion, options, exec);

      uint64_t returned_total = 0;
      uint64_t correct_total = 0;
      uint64_t truth_total = 0;
      const double total_nanos =
          static_cast<double>(batch.stats.wall_nanos);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const KnnResult& result = batch.results[qi];
        returned_total += result.answers.size();
        truth_total += truth_sets[qi].size();
        for (const auto& e : result.answers) {
          if (truth_sets[qi].count(e.id) > 0) ++correct_total;
        }
      }

      KnnExperimentRow row;
      row.algorithm = KnnAlgorithmLabel(strategy, kind);
      row.millis_per_query =
          total_nanos * 1e-6 / static_cast<double>(queries.size());
      row.precision_pct =
          returned_total == 0
              ? 100.0
              : 100.0 * static_cast<double>(correct_total) /
                    static_cast<double>(returned_total);
      row.recall_pct = truth_total == 0
                           ? 100.0
                           : 100.0 * static_cast<double>(correct_total) /
                                 static_cast<double>(truth_total);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace hyperdom

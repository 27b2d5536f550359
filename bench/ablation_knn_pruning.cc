// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Ablation: kNN pruning-mode semantics (DESIGN.md Section 3b).
// The paper's Section-6 pseudocode decides case-1 evictions and case-2
// drops against the *interim* Sk (kEager); Definition 2 filters by the
// *final* Sk. kDeferred makes exactly that decision, once per candidate
// past position k, and no interim one. This bench measures the recall the
// verbatim pseudocode loses and the dominance checks each mode spends.
//
// It is also a check: the exit code is non-zero unless every deferred row
// has 100% recall and precision, every eager row has 100% precision, and
// deferred makes no more dominance checks than eager for each strategy and
// k. `--smoke` shrinks the workload so tier-1 ctest runs that check.

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "query/knn.h"

namespace {

struct ModeRow {
  double ms_per_query = 0.0;
  uint64_t returned = 0;
  uint64_t correct = 0;
  uint64_t expected = 0;
  uint64_t checks = 0;

  double recall_pct() const {
    return 100.0 * static_cast<double>(correct) /
           static_cast<double>(expected);
  }
  double precision_pct() const {
    return returned == 0 ? 100.0
                         : 100.0 * static_cast<double>(correct) /
                               static_cast<double>(returned);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hyperdom;
  bench::Reporter reporter(argc, argv, "ablation_knn_pruning");
  SyntheticSpec spec;
  spec.n = reporter.Scaled(50'000, 5'000);
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.seed = 0xAB99;
  bench::PrintHeader("Ablation: kNN pruning mode (deferred vs eager)",
                     "N = " + std::to_string(spec.n) +
                         ", d = 4, mu = 10, Hyperbola criterion");

  const auto data = GenerateSynthetic(spec);
  SsTree tree(spec.dim);
  if (Status st = tree.BulkLoad(data); !st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const auto queries = MakeKnnQueries(data, reporter.Scaled(10, 4), 0xABAA);
  const HyperbolaCriterion hyperbola;

  TablePrinter table({"strategy", "k", "mode", "query time", "recall",
                      "precision", "dominance checks"});
  std::vector<std::string> failures;
  for (SearchStrategy strategy :
       {SearchStrategy::kBestFirst, SearchStrategy::kDepthFirst}) {
    const std::string strategy_name =
        strategy == SearchStrategy::kBestFirst ? "HS" : "DF";
    for (size_t k : {1, 10, 30}) {
      // Exact ground truth (Definition 2).
      std::vector<std::unordered_set<uint64_t>> truth;
      for (const auto& sq : queries) {
        std::unordered_set<uint64_t> ids;
        for (const auto& e : KnnLinearScan(data, sq, k, hyperbola).answers) {
          ids.insert(e.id);
        }
        truth.push_back(std::move(ids));
      }
      ModeRow rows[2];
      std::vector<std::string> json_rows;
      for (KnnPruningMode mode :
           {KnnPruningMode::kDeferred, KnnPruningMode::kEager}) {
        const bool deferred = mode == KnnPruningMode::kDeferred;
        KnnOptions options;
        options.k = k;
        options.strategy = strategy;
        options.pruning_mode = mode;
        KnnSearcher searcher(&hyperbola, options);

        ModeRow& row = rows[deferred ? 0 : 1];
        Stopwatch watch;
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const KnnResult result = searcher.Search(tree, queries[qi]);
          row.returned += result.answers.size();
          row.expected += truth[qi].size();
          row.checks += result.stats.dominance_checks;
          for (const auto& e : result.answers) {
            if (truth[qi].count(e.id) > 0) ++row.correct;
          }
        }
        row.ms_per_query = static_cast<double>(watch.ElapsedNs()) * 1e-6 /
                           static_cast<double>(queries.size());
        const std::string mode_name = deferred ? "deferred" : "eager";
        char time_s[32], recall_s[32], precision_s[32];
        std::snprintf(time_s, sizeof(time_s), "%.3f ms", row.ms_per_query);
        std::snprintf(recall_s, sizeof(recall_s), "%.2f%%", row.recall_pct());
        std::snprintf(precision_s, sizeof(precision_s), "%.2f%%",
                      row.precision_pct());
        table.AddRow({strategy_name, std::to_string(k), mode_name, time_s,
                      recall_s, precision_s,
                      std::to_string(row.checks / queries.size())});
        json_rows.push_back(
            "{\"mode\": \"" + mode_name + "\", \"millis_per_query\": " +
            FormatDouble(row.ms_per_query) +
            ", \"recall_pct\": " + FormatDouble(row.recall_pct()) +
            ", \"precision_pct\": " + FormatDouble(row.precision_pct()) +
            ", \"dominance_checks\": " + std::to_string(row.checks) + "}");

        const std::string where = strategy_name + " k=" + std::to_string(k) +
                                  " " + mode_name;
        if (row.correct != row.returned) {
          failures.push_back(where + ": precision below 100%");
        }
        if (deferred && row.correct != row.expected) {
          failures.push_back(where + ": recall below 100%");
        }
      }
      if (rows[0].checks > rows[1].checks) {
        failures.push_back(strategy_name + " k=" + std::to_string(k) +
                           ": deferred made more dominance checks (" +
                           std::to_string(rows[0].checks) + ") than eager (" +
                           std::to_string(rows[1].checks) + ")");
      }
      reporter.RawSweep(strategy_name + " k = " + std::to_string(k),
                        json_rows);
    }
  }
  table.Print();
  std::printf(
      "\nReading: eager mode (the paper's pseudocode verbatim) loses recall\n"
      "because interim-Sk dominance does not imply final-Sk dominance.\n"
      "Deferred mode returns the exact Definition-2 answer and decides each\n"
      "candidate past position k once, against the final Sk, so it also\n"
      "makes fewer dominance checks than eager, which re-checks the list\n"
      "tail after every case-1 insert.\n");
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAIL %s\n", failure.c_str());
  }
  const int status = reporter.Finish();
  return failures.empty() ? status : 1;
}

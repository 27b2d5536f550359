// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Thread-scaling curve of the batch kNN engine (src/exec/batch.h): a
// seeded 10k-query workload over an SS-tree (N = 100k, d = 4, k = 10,
// Hyperbola) run at 1/2/4/8 worker threads. Besides throughput the bench
// re-checks the engine's core contract on every point: the answer vector
// must be bit-identical to the single-threaded run regardless of thread
// count. Speedup is bounded by the machine's core count — the curve is
// honest, not normalized.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/generator.h"
#include "eval/table_printer.h"
#include "eval/workload.h"
#include "exec/batch.h"

namespace {

using namespace hyperdom;

// Bit-level equality of two batch runs: same answers (id, order), same
// completeness flags, same traversal counters.
bool IdenticalRuns(const BatchKnnResult& a, const BatchKnnResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const KnnResult& x = a.results[i];
    const KnnResult& y = b.results[i];
    if (x.completeness != y.completeness) return false;
    if (x.answers.size() != y.answers.size()) return false;
    for (size_t j = 0; j < x.answers.size(); ++j) {
      if (x.answers[j].id != y.answers[j].id) return false;
    }
    if (x.stats.nodes_visited != y.stats.nodes_visited ||
        x.stats.nodes_pruned != y.stats.nodes_pruned ||
        x.stats.entries_accessed != y.stats.entries_accessed ||
        x.stats.dominance_checks != y.stats.dominance_checks) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Batch kNN thread scaling",
      "N = 100k, d = 4, k = 10, Hyperbola, 10k queries, SS-tree");
  bench::Reporter reporter(argc, argv, "batch_knn_scaling");

  SyntheticSpec spec;
  spec.n = reporter.Scaled(100'000, 5'000);
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 17'000;
  const auto data = GenerateSynthetic(spec);

  SsTree tree(spec.dim);
  const Status st = tree.BulkLoadStr(data);
  (void)st;  // generated data is well-formed

  const std::vector<Hypersphere> queries =
      MakeKnnQueries(data, reporter.Scaled(10'000, 200), 17'100);
  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);
  KnnOptions options;
  options.k = 10;

  BatchOptions serial_exec;
  serial_exec.threads = 1;
  const BatchKnnResult serial =
      BatchKnn(tree, queries, *criterion, options, serial_exec);
  const double serial_ms =
      static_cast<double>(serial.stats.wall_nanos) * 1e-6;

  std::printf("\n-- thread scaling (%zu queries, %u cores) --\n",
              queries.size(), std::thread::hardware_concurrency());
  TablePrinter table({"threads", "total time", "time/query", "speedup",
                      "identical to serial"});
  std::vector<std::string> rows;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    BatchOptions exec;
    exec.threads = threads;
    const BatchKnnResult batch =
        BatchKnn(tree, queries, *criterion, options, exec);
    const double total_ms =
        static_cast<double>(batch.stats.wall_nanos) * 1e-6;
    const double per_query_ms =
        total_ms / static_cast<double>(queries.size());
    const double speedup = total_ms > 0.0 ? serial_ms / total_ms : 0.0;
    const bool identical = IdenticalRuns(serial, batch);

    char total[32], per_query[32], speedup_s[32];
    std::snprintf(total, sizeof(total), "%.1f ms", total_ms);
    std::snprintf(per_query, sizeof(per_query), "%.4f ms", per_query_ms);
    std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", speedup);
    table.AddRow({std::to_string(threads), total, per_query, speedup_s,
                  identical ? "yes" : "NO"});

    rows.push_back(
        "{\"threads\": " + std::to_string(threads) +
        ", \"millis_total\": " + FormatDouble(total_ms) +
        ", \"millis_per_query\": " + FormatDouble(per_query_ms) +
        ", \"speedup_vs_1\": " + FormatDouble(speedup) +
        ", \"identical_to_serial\": " + (identical ? "true" : "false") +
        "}");
    if (!identical) {
      std::fprintf(stderr,
                   "error: %zu-thread batch diverged from the serial run\n",
                   threads);
      return 1;
    }
  }
  table.Print();
  reporter.RawSweep("thread scaling", rows);

  std::printf(
      "\nExpected shape: near-linear speedup up to the physical core count\n"
      "(this container reports %u), flat beyond it; the 'identical' column\n"
      "must read yes everywhere — the engine's determinism contract.\n",
      std::thread::hardware_concurrency());
  return reporter.Finish();
}

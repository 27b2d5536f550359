// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shared output helpers for the per-figure benchmark binaries. Each binary
// regenerates one table/figure of the paper's Section 7 and prints the same
// rows/series the paper plots.

#ifndef HYPERDOM_BENCH_BENCH_UTIL_H_
#define HYPERDOM_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "geometry/point.h"
#include "obs/metrics.h"

namespace hyperdom {
namespace bench {

/// Prints a figure banner.
inline void PrintHeader(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
}

/// Prints dominance-experiment rows for one sweep point (one x-axis value
/// of a Section 7.1 figure).
inline void PrintDominanceTable(
    const std::string& sweep_label,
    const std::vector<DominanceExperimentRow>& rows) {
  std::printf("\n-- %s --\n", sweep_label.c_str());
  TablePrinter table({"criterion", "time/query", "precision", "recall"});
  for (const auto& row : rows) {
    char precision[32], recall[32];
    std::snprintf(precision, sizeof(precision), "%.2f%%", row.precision_pct);
    std::snprintf(recall, sizeof(recall), "%.2f%%", row.recall_pct);
    table.AddRow({row.criterion, FormatDuration(row.nanos_per_query),
                  precision, recall});
  }
  table.Print();
}

/// Prints kNN-experiment rows for one sweep point (one x-axis value of a
/// Section 7.2 figure).
inline void PrintKnnTable(const std::string& sweep_label,
                          const std::vector<KnnExperimentRow>& rows) {
  std::printf("\n-- %s --\n", sweep_label.c_str());
  TablePrinter table({"algorithm", "query time", "precision", "recall"});
  for (const auto& row : rows) {
    char time_ms[32], precision[32], recall[32];
    std::snprintf(time_ms, sizeof(time_ms), "%.3f ms", row.millis_per_query);
    std::snprintf(precision, sizeof(precision), "%.2f%%", row.precision_pct);
    std::snprintf(recall, sizeof(recall), "%.2f%%", row.recall_pct);
    table.AddRow({row.algorithm, time_ms, precision, recall});
  }
  table.Print();
}

namespace internal {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// The machine a run measured, as one JSON object: its hardware threads,
// the CPUs this process may run on (a `taskset` mask shrinks it), and the
// span kernels' instruction path. Read at run time, since a value fixed
// when the binary was configured goes stale.
inline std::string HostJson() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int cpus_allowed =
      sched_getaffinity(0, sizeof(mask), &mask) == 0 ? CPU_COUNT(&mask) : 0;
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpus_allowed\": " + std::to_string(cpus_allowed) +
         ", \"kernel_dispatch\": \"" + KernelDispatchName() + "\"}";
}

inline bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << body;
  file.flush();
  return static_cast<bool>(file);
}

}  // namespace internal

/// The value at rank floor(p * (n - 1)) of an ascending `sorted`; 0 when
/// it is empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

/// \brief Flag parsing plus machine-readable output for the figure
/// binaries.
///
/// Accumulates the sweeps a binary prints and, when asked, emits them as a
/// `BENCH_<name>.json` artifact so CI can diff benchmark results across
/// commits instead of scraping stdout. Flags (all optional):
///
///   --smoke             shrink the workload; binaries pick the reduced
///                       sizes via Scaled(full, smoke)
///   --json-out=FILE     write the accumulated rows as
///                       `hyperdom-bench-v1` JSON, with the host they
///                       ran on (internal::HostJson)
///   --headline-out=FILE write the SAME JSON body to a second path in the
///                       same run (the repo-root headline copy of a
///                       results file, kept in sync by construction)
///   --metrics-out=FILE  dump the process metrics registry after the run
///                       (`.json` extension selects the JSON export,
///                       anything else Prometheus text)
///   --threads=N         worker threads for query workloads (0 = all
///                       cores); results are bit-identical at any value
///
/// Usage: construct from (argc, argv), replace Print*Table calls with
/// KnnSweep/DominanceSweep, and `return reporter.Finish();` from main.
class Reporter {
 public:
  Reporter(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (StartsWith(arg, "--json-out=")) {
        json_out_ = arg.substr(11);
      } else if (StartsWith(arg, "--headline-out=")) {
        headline_out_ = arg.substr(15);
      } else if (StartsWith(arg, "--metrics-out=")) {
        metrics_out_ = arg.substr(14);
      } else if (StartsWith(arg, "--threads=")) {
        threads_ = static_cast<size_t>(
            std::strtoull(arg.c_str() + 10, nullptr, 10));
      } else {
        std::fprintf(stderr,
                     "error: unknown flag '%s'\n"
                     "usage: %s [--smoke] [--json-out=FILE] "
                     "[--headline-out=FILE] [--metrics-out=FILE] "
                     "[--threads=N]\n",
                     arg.c_str(), argv[0]);
        bad_flags_ = true;
      }
    }
  }

  /// True when --smoke was given: the binary should run a shrunk workload
  /// that exercises every code path but finishes in seconds.
  bool smoke() const { return smoke_; }

  /// Workload size selector: `full` normally, `smoke` under --smoke.
  size_t Scaled(size_t full, size_t smoke) const {
    return smoke_ ? smoke : full;
  }

  /// Worker threads for query workloads (from --threads; default 1,
  /// 0 = hardware concurrency). Feeds KnnExperimentConfig::threads.
  size_t threads() const { return threads_; }

  /// Prints and records one dominance sweep point.
  void DominanceSweep(const std::string& label,
                      const std::vector<DominanceExperimentRow>& rows) {
    PrintDominanceTable(label, rows);
    std::string sweep = SweepPrefix(label);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) sweep += ",\n";
      sweep += "        {\"criterion\": \"" +
               internal::JsonEscape(rows[i].criterion) +
               "\", \"nanos_per_query\": " +
               FormatDouble(rows[i].nanos_per_query) +
               ", \"precision_pct\": " + FormatDouble(rows[i].precision_pct) +
               ", \"recall_pct\": " + FormatDouble(rows[i].recall_pct) + "}";
    }
    sweeps_.push_back(sweep + "\n      ]\n    }");
  }

  /// Prints and records one kNN sweep point.
  void KnnSweep(const std::string& label,
                const std::vector<KnnExperimentRow>& rows) {
    PrintKnnTable(label, rows);
    std::string sweep = SweepPrefix(label);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) sweep += ",\n";
      sweep += "        {\"algorithm\": \"" +
               internal::JsonEscape(rows[i].algorithm) +
               "\", \"millis_per_query\": " +
               FormatDouble(rows[i].millis_per_query) +
               ", \"precision_pct\": " + FormatDouble(rows[i].precision_pct) +
               ", \"recall_pct\": " + FormatDouble(rows[i].recall_pct) + "}";
    }
    sweeps_.push_back(sweep + "\n      ]\n    }");
  }

  /// Records one sweep point with caller-formatted rows (each element a
  /// complete JSON object). For benches whose rows don't fit the
  /// dominance/kNN shapes, e.g. the thread-scaling curve; the caller owns
  /// the human-readable table printing.
  void RawSweep(const std::string& label,
                const std::vector<std::string>& rows) {
    std::string sweep = SweepPrefix(label);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) sweep += ",\n";
      sweep += "        " + rows[i];
    }
    sweeps_.push_back(sweep + "\n      ]\n    }");
  }

  /// Writes the requested artifacts; the binary's exit code.
  int Finish() const {
    if (bad_flags_) return 2;
    if (!json_out_.empty() || !headline_out_.empty()) {
      std::string body;
      body += "{\n  \"schema\": \"hyperdom-bench-v1\",\n";
      body += "  \"bench\": \"" + internal::JsonEscape(bench_name_) + "\",\n";
      body += std::string("  \"smoke\": ") + (smoke_ ? "true" : "false") +
              ",\n  \"host\": " + internal::HostJson() +
              ",\n  \"sweeps\": [\n";
      for (size_t i = 0; i < sweeps_.size(); ++i) {
        if (i > 0) body += ",\n";
        body += sweeps_[i];
      }
      body += "\n  ]\n}\n";
      if (!json_out_.empty() && !internal::WriteFile(json_out_, body)) {
        std::fprintf(stderr, "error: cannot write %s\n", json_out_.c_str());
        return 1;
      }
      // Byte-identical second copy: the headline file can never drift
      // from the results file it mirrors, because both come from this
      // one `body`.
      if (!headline_out_.empty() &&
          !internal::WriteFile(headline_out_, body)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     headline_out_.c_str());
        return 1;
      }
    }
    if (!metrics_out_.empty()) {
      auto& registry = obs::MetricsRegistry::Instance();
      const std::string body = EndsWith(metrics_out_, ".json")
                                   ? registry.RenderJson()
                                   : registry.RenderPrometheus();
      if (!internal::WriteFile(metrics_out_, body)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_out_.c_str());
        return 1;
      }
    }
    return 0;
  }

 private:
  static std::string SweepPrefix(const std::string& label) {
    return "    {\n      \"label\": \"" + internal::JsonEscape(label) +
           "\",\n      \"rows\": [\n";
  }

  std::string bench_name_;
  std::string json_out_;
  std::string headline_out_;
  std::string metrics_out_;
  size_t threads_ = 1;
  bool smoke_ = false;
  bool bad_flags_ = false;
  std::vector<std::string> sweeps_;
};

}  // namespace bench
}  // namespace hyperdom

#endif  // HYPERDOM_BENCH_BENCH_UTIL_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// hyperdom_bench: the repository benchmark. Runs one named workload (or all
// four, each in a fresh child process so peak RSS and the metrics registry
// start clean), checks every answer, and prints its metrics.
//
//   hyperdom_bench --workload=<name>|all --seed=S [--seconds=T]
//                  [--trace=DIR] [--smoke]
//
// The workload table and the metric catalogue are in README.md.

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "data/generator.h"
#include "eval/workload.h"
#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "query/knn.h"

extern char** environ;

namespace hyperdom {
namespace bench {
namespace {

// Sizes and rates: README.md "Workloads" gives the reason for each.
constexpr Workload kWorkloads[] = {
    {"wire_small", Backend::kServer, 10'000, 4, 1, 2'000, 2'000.0, 0.0, 0},
    {"knn_paper", Backend::kServer, 100'000, 4, 10, 2'000, 500.0, 0.0, 0},
    {"mixed_write", Backend::kMutable, 100'000, 4, 10, 2'000, 500.0, 0.3, 0},
    {"sharded_highd", Backend::kSharded, 5'000, 50, 10, 500, 0.0, 0.0, 4},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: %s --workload=<name>|all --seed=S "
               "[--seconds=T] [--trace=DIR] [--smoke]\nworkloads:",
               error.c_str(), argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

// Runs every workload in its own child process (this binary, re-executed
// with --workload=<name>); returns the worst child exit code.
int RunAll(const std::vector<std::string>& pass_through,
           const std::string& trace_dir) {
  int worst = 0;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args = {"hyperdom_bench",
                                     std::string("--workload=") + w.name};
    args.insert(args.end(), pass_through.begin(), pass_through.end());
    if (!trace_dir.empty()) {
      args.push_back("--trace=" + trace_dir + "/" + w.name);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "error: cannot start workload %s\n", w.name);
      return 1;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return 1;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    worst = std::max(worst, code);
  }
  return worst;
}

std::string FormatValue(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

uint64_t RunOptions::StreamSeed(uint64_t stream) const {
  return Rng(seed).Fork(stream).NextU64();
}

Workload Scaled(const RunOptions& options) {
  Workload w = *options.workload;
  if (options.smoke) {
    w.n = std::max<size_t>(2'000, w.n / 50);
    w.pool = std::min<size_t>(w.pool, 100);
  }
  return w;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Check(const std::string& name, uint64_t count, bool ok) {
  checks_.push_back(CheckEntry{name, count, ok});
}

void Report::Requests(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::Print(const RunOptions& options) const {
  bool correct = !checks_.empty();
  for (const CheckEntry& c : checks_) {
    std::printf("check %s %llu %s\n", c.name.c_str(),
                static_cast<unsigned long long>(c.count),
                c.ok ? "ok" : "FAILED");
    correct = correct && c.ok;
  }
  for (const Entry& m : metrics_) {
    std::printf("%s %s %s\n", m.name.c_str(), FormatValue(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"workload\": \"" +
                     std::string(options.workload->name) +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"traced\": " + (options.traced() ? "true" : "false") +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"checks\": {";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + checks_[i].name + "\": " +
            std::to_string(checks_[i].count);
  }
  json += "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name +
            "\": {\"value\": " + FormatValue(metrics_[i].value) +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (options.traced()) {
    std::ofstream layers(options.trace_dir + "/layers.json", std::ios::trunc);
    layers << json << "\n";
    if (!layers.flush()) {
      std::fprintf(stderr, "error: cannot write %s/layers.json\n",
                   options.trace_dir.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

size_t CountAbove(const std::vector<double>& sorted, double value) {
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

void CountCompletion(Clock::time_point start, Clock::time_point done,
                     std::vector<uint32_t>* buckets) {
  const auto i = static_cast<size_t>(
      std::chrono::duration<double>(done - start).count() / kBucketSeconds);
  if (i >= buckets->size()) buckets->resize(i + 1, 0);
  ++(*buckets)[i];
}

double MedianBucketRate(const std::vector<uint32_t>& buckets, double seconds) {
  const auto whole = std::min(
      buckets.size(), static_cast<size_t>(seconds / kBucketSeconds));
  std::vector<double> rates;
  for (size_t i = 0; i < whole; ++i) rates.push_back(buckets[i] / kBucketSeconds);
  return Median(std::move(rates));
}

void ReportLatencies(const std::vector<double>& sorted_us,
                     const std::string& prefix, Report* report) {
  const double p99 = Percentile(sorted_us, 0.99);
  const double p999 = Percentile(sorted_us, 0.999);
  report->Metric(prefix + "p50_us", Percentile(sorted_us, 0.50), "us");
  report->Metric(prefix + "p90_us", Percentile(sorted_us, 0.90), "us");
  report->Metric(prefix + "p99_us", p99, "us");
  report->Metric(prefix + "p999_us", p999, "us");
  report->Metric(prefix + "p99_beyond",
                 static_cast<double>(CountAbove(sorted_us, p99)), "count");
  report->Metric(prefix + "p999_beyond",
                 static_cast<double>(CountAbove(sorted_us, p999)), "count");
  report->Metric(prefix + "samples", static_cast<double>(sorted_us.size()),
                 "count");
}

void ReportQueryLayers(const QueryTotals& q, const TimedCriterion::Totals& d,
                       Report* report) {
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  report->Metric("query.knn_us", Ratio(q.knn_ns, q.queries) / 1e3, "us");
  report->Metric("query.nodes_visited_per_q",
                 Ratio(count(q.nodes_visited), q.queries), "count");
  report->Metric("query.nodes_pruned_per_q",
                 Ratio(count(q.nodes_pruned), q.queries), "count");
  report->Metric("query.prune_ratio",
                 Ratio(count(q.nodes_pruned),
                       count(q.nodes_visited + q.nodes_pruned)),
                 "ratio");
  report->Metric("query.entries_accessed_per_q",
                 Ratio(count(q.entries_accessed), q.queries), "count");
  report->Metric("query.answers_per_q", Ratio(count(q.answers), q.queries),
                 "count");
  report->Metric("dominance.candidates_per_q",
                 Ratio(count(d.candidates()), q.queries), "count");
  report->Metric("dominance.batch_fill",
                 Ratio(count(d.batch_candidates), count(d.batch_calls)),
                 "count");
  report->Metric("dominance.ns_per_candidate",
                 Ratio(count(d.ns), count(d.candidates())), "ns");
  report->Metric("dominance.busy_frac", Ratio(count(d.ns), q.knn_ns),
                 "ratio");
  report->Metric("dominance.prune_yield",
                 Ratio(count(q.pruned_case2), count(q.dominance_checks)),
                 "ratio");
}

Inputs MakeInputs(const Workload& w, const RunOptions& options) {
  SyntheticSpec spec;
  spec.n = w.n;
  spec.dim = w.dim;
  spec.radius_mean = kRadiusMean;
  spec.center_mean = kCenterMean;
  spec.center_stddev = kCenterStddev;
  spec.seed = options.StreamSeed(1);
  Inputs inputs;
  inputs.data = GenerateSynthetic(spec);
  inputs.pool = MakeKnnQueries(inputs.data, w.pool, options.StreamSeed(2));
  return inputs;
}

std::vector<KnnResult> ReferenceAnswers(const SsTree& tree,
                                        const std::vector<Hypersphere>& queries,
                                        const DominanceCriterion& criterion,
                                        size_t k, ThreadPool* threads) {
  KnnOptions options;
  options.k = k;
  const KnnSearcher searcher(&criterion, options);
  std::vector<KnnResult> out(queries.size());
  ParallelFor(threads, queries.size(),
              [&](size_t i) { out[i] = searcher.Search(tree, queries[i]); });
  return out;
}

bool SameAnswers(const std::vector<DataEntry>& a,
                 const std::vector<DataEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Hypersphere& x = a[i].sphere;
    const Hypersphere& y = b[i].sphere;
    const double rx = x.radius();
    const double ry = y.radius();
    if (a[i].id != b[i].id || x.dim() != y.dim() ||
        std::memcmp(&rx, &ry, sizeof(double)) != 0 ||
        std::memcmp(x.center().data(), y.center().data(),
                    x.dim() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool WarmUp(const std::function<bool()>& build) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  while (Clock::now() < end) {
    // As before each timed build, so the warm-up leaves no higher peak RSS
    // than a timed build does.
    ReleaseFreedMemory();
    if (!build()) return false;
  }
  return true;
}

void ReleaseFreedMemory() { malloc_trim(0); }

bool WriteTextFile(const std::string& path, const std::string& body) {
  std::ofstream file(path, std::ios::trunc);
  file << body;
  return static_cast<bool>(file.flush());
}

bool SameAnswers(const std::vector<KnnResult>& a,
                 const std::vector<KnnResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameAnswers(a[i].answers, b[i].answers)) return false;
  }
  return true;
}

void SaveTrace(const RunOptions& options, const std::string& file,
               Report* report) {
  if (!WriteTextFile(options.trace_dir + "/" + file,
                     obs::Tracer::Instance().RenderChromeTrace())) {
    report->Check("trace_files", 0, false);
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

RegistrySnapshot RegistrySnapshot::Take() {
  auto& reg = obs::MetricsRegistry::Instance();
  auto counter = [&reg](const std::string& name) {
    return reg.GetCounter(name)->Value();
  };
  auto hist = [&reg](const std::string& name) {
    const obs::HistogramSnapshot s = reg.GetHistogram(name)->Snapshot();
    return HistTotals{s.count, s.sum};
  };
  auto ss = [](const obs::MetricDef& def) {
    return obs::LabeledName(def.name, "index", "ss");
  };
  auto conflicts = [](std::string_view op) {
    return obs::LabeledName(obs::kStoreMutations.name,
                            {{"op", op}, {"result", "conflict"}});
  };
  RegistrySnapshot s;
  s.knn_queries = counter(ss(obs::kKnnQueries));
  s.nodes_visited = counter(ss(obs::kKnnNodesVisited));
  s.nodes_pruned = counter(ss(obs::kKnnNodesPruned));
  s.entries_accessed = counter(ss(obs::kKnnEntriesAccessed));
  s.dominance_checks = counter(ss(obs::kKnnDominanceChecks));
  s.pruned_case2 = counter(ss(obs::kKnnPrunedCase2));
  s.shed = counter(obs::kServerShed.name);
  s.protocol_errors = counter(obs::kServerProtocolErrors.name);
  s.exec_tasks = counter(obs::kExecTasks.name);
  s.compactions =
      counter(obs::LabeledName(obs::kStoreCompactions.name, "result", "ok"));
  s.conflicts = counter(conflicts("insert")) + counter(conflicts("remove"));
  s.knn_duration = hist(ss(obs::kKnnQueryDuration));
  s.server_request = hist(obs::kServerRequestDuration.name);
  s.shard_merge = hist(obs::kShardMergeDuration.name);
  s.compaction = hist(obs::kStoreCompactionDuration.name);
  s.index_build = hist(ss(obs::kIndexBuildDuration));
  return s;
}

RegistrySnapshot RegistrySnapshot::operator-(
    const RegistrySnapshot& before) const {
  auto minus = [](HistTotals a, HistTotals b) {
    return HistTotals{a.count - b.count, a.sum - b.sum};
  };
  RegistrySnapshot d;
  d.knn_queries = knn_queries - before.knn_queries;
  d.nodes_visited = nodes_visited - before.nodes_visited;
  d.nodes_pruned = nodes_pruned - before.nodes_pruned;
  d.entries_accessed = entries_accessed - before.entries_accessed;
  d.dominance_checks = dominance_checks - before.dominance_checks;
  d.pruned_case2 = pruned_case2 - before.pruned_case2;
  d.shed = shed - before.shed;
  d.protocol_errors = protocol_errors - before.protocol_errors;
  d.exec_tasks = exec_tasks - before.exec_tasks;
  d.compactions = compactions - before.compactions;
  d.conflicts = conflicts - before.conflicts;
  d.knn_duration = minus(knn_duration, before.knn_duration);
  d.server_request = minus(server_request, before.server_request);
  d.shard_merge = minus(shard_merge, before.shard_merge);
  d.compaction = minus(compaction, before.compaction);
  d.index_build = minus(index_build, before.index_build);
  return d;
}

}  // namespace bench
}  // namespace hyperdom

int main(int argc, char** argv) {
  using namespace hyperdom;
  using namespace hyperdom::bench;
  RunOptions options;
  std::string workload;
  bool seconds_given = false;
  std::vector<std::string> pass_through;  // forwarded by --workload=all
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--workload=")) {
      workload = arg.substr(11);
      continue;
    }
    if (StartsWith(arg, "--seed=")) {
      if (!ParseUint64(arg.substr(7), &options.seed)) {
        return Usage(argv[0], "bad --seed: " + arg);
      }
    } else if (StartsWith(arg, "--seconds=")) {
      if (!ParseDouble(arg.substr(10), &options.seconds) ||
          !(options.seconds > 0.0)) {
        return Usage(argv[0], "bad --seconds: " + arg);
      }
      seconds_given = true;
    } else if (StartsWith(arg, "--trace=")) {
      options.trace_dir = arg.substr(8);
      if (options.trace_dir.empty()) {
        return Usage(argv[0], "empty --trace directory");
      }
      continue;  // --workload=all gives each child its own subdirectory
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return Usage(argv[0], "unknown flag: " + arg);
    }
    pass_through.push_back(arg);
  }
  if (workload == "all") return RunAll(pass_through, options.trace_dir);
  options.workload = FindWorkload(workload);
  if (options.workload == nullptr) {
    return Usage(argv[0], "unknown --workload: '" + workload + "'");
  }
  if (options.smoke && !seconds_given) options.seconds = 1.0;
  if (options.traced()) {
    std::error_code error;
    std::filesystem::create_directories(options.trace_dir, error);
    if (error) {
      return Usage(argv[0], "cannot create --trace directory: " +
                                error.message());
    }
  }

  Report report;
  if (options.workload->backend == Backend::kSharded) {
    RunSharded(options, &report);
  } else {
    RunServing(options, &report);
  }
  return report.Print(options);
}

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shared pieces of the repository benchmark (hyperdom_bench/README.md): the
// workload description, the run options, the report every workload fills
// in, and the statistics and registry helpers the workloads share.

#ifndef HYPERDOM_BENCH_BENCH_H_
#define HYPERDOM_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dominance/criterion.h"
#include "exec/thread_pool.h"
#include "index/entry.h"
#include "index/ss_tree.h"
#include "obs/metrics.h"
#include "query/knn_types.h"
#include "timed_criterion.h"

namespace hyperdom {
namespace bench {

enum class Backend {
  kServer,   ///< in-process Server over a static SS-tree, driven over loopback
  kMutable,  ///< in-process Server over a MutableSsTree, reads plus writes
  kSharded,  ///< shard::ShardedKnn called in-process, no server
};

/// One named workload. The names are fixed: results are compared by name.
struct Workload {
  const char* name;
  Backend backend;
  size_t n;           ///< data spheres
  size_t dim;
  size_t k;
  size_t pool;        ///< distinct queries drawn from the data
  double open_rate;   ///< open-loop requests/s over all connections; 0 = none
  double write_frac;  ///< share of requests that are inserts or removes
  size_t shards;      ///< hash shards (sharded backend only)
};

/// Paper Table 2 default radius mean mu.
inline constexpr double kRadiusMean = 10.0;
/// Per-coordinate Gaussian of the centers: the tenfold coordinate scale of
/// the repository's kNN figure benches (EXPERIMENTS.md). At the paper's
/// literal Gaussian(100, 25) a d = 4 query overlaps hundreds of spheres and
/// the answer sets swamp everything else.
inline constexpr double kCenterMean = 1000.0;
inline constexpr double kCenterStddev = 250.0;
/// Generator threads, client connections and the sharded scatter pool.
inline constexpr size_t kConnections = 4;
/// Store builds per run; setup_s is their median. A build takes 3–60 ms
/// and varies ±20% from one to the next, so a median of few is noisy.
inline constexpr size_t kSetupRepeats = 9;
/// Untimed store builds before the timed ones. On the 4-vCPU guest the
/// first half second or so of builds in a fresh process ran up to 40%
/// slower (knn_paper: 42–51 ms, then 34–38 ms), and how many of the timed
/// builds that covered varied from run to run: over 10 runs, knn_paper's
/// setup_s spread (IQR / median) was 0.20 without the warm-up, 0.07 with.
inline constexpr double kWarmupSeconds = 1.0;
/// Trace ring size for a traced half: the last few thousand requests'
/// spans, few enough to keep the Chrome trace file modest.
inline constexpr size_t kTraceCapacity = 1 << 15;

struct RunOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json run_seconds
  /// Traced run: per-layer metrics plus trace files under this directory.
  std::string trace_dir;
  bool smoke = false;

  bool traced() const { return !trace_dir.empty(); }
  /// Independent seeded stream `stream` of this run (data, pool, schedule).
  uint64_t StreamSeed(uint64_t stream) const;
};

/// Everything one workload run reports. Print() writes one
/// `name value unit` line per metric, one `check name count ok|FAILED`
/// line per correctness check, and a final JSON object with the same
/// content; it returns the process exit code (1 on any failed check).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(const std::string& name, uint64_t count, bool ok);
  /// Requests issued in the timed windows and how many of them failed.
  void Requests(uint64_t attempted, uint64_t failed);
  int Print(const RunOptions& options) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    uint64_t count;
    bool ok;
  };
  std::vector<Entry> metrics_;
  std::vector<CheckEntry> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The run's workload, shrunk to a few thousand spheres under --smoke.
Workload Scaled(const RunOptions& options);

void RunServing(const RunOptions& options, Report* report);
void RunSharded(const RunOptions& options, Report* report);

// ---------------------------------------------------------------------------
// Statistics. Percentile is the nearest-rank formula of bench/server_load.cc
// and bench/mutation_throughput.cc, so the numbers compare with theirs.

/// Value at rank floor(p * (n - 1)) of an ascending-sorted sample; 0 if empty.
double Percentile(const std::vector<double>& sorted, double p);
/// Samples strictly above `value` in an ascending-sorted sample.
size_t CountAbove(const std::vector<double>& sorted, double value);
double Median(std::vector<double> values);

/// Reports p50_us, p90_us, p99_us and p999_us of an ascending-sorted latency
/// sample (microseconds), the samples beyond the two tail percentiles
/// (p99_beyond, p999_beyond) and the sample count (samples), each name
/// prefixed with `prefix`.
void ReportLatencies(const std::vector<double>& sorted_us,
                     const std::string& prefix, Report* report);

/// One traced window's query-layer totals, whichever backend produced them.
struct QueryTotals {
  double queries = 0;
  double knn_ns = 0;  ///< traversal time summed over the queries
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned = 0;
  uint64_t entries_accessed = 0;
  uint64_t answers = 0;
  uint64_t dominance_checks = 0;
  uint64_t pruned_case2 = 0;
};

/// Reports the query.* and dominance.* per-layer metrics.
void ReportQueryLayers(const QueryTotals& q, const TimedCriterion::Totals& d,
                       Report* report);

// ---------------------------------------------------------------------------
// Helpers.

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// CPU time all threads of this process have used so far, in seconds. Time
/// the host took a virtual CPU away (steal) is not in it, and neither is
/// time a thread slept waiting to be woken; what a request costs in CPU is
/// far steadier on a shared host than how long it took.
double ProcessCpuSeconds();

/// `num / den`, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// The run's seeded inputs: the data spheres and the query pool drawn
/// from them. The program under test sees only these.
struct Inputs {
  std::vector<Hypersphere> data;
  std::vector<Hypersphere> pool;
};
Inputs MakeInputs(const Workload& w, const RunOptions& options);

/// KnnSearcher::Search answers for every query, computed on `threads`.
std::vector<KnnResult> ReferenceAnswers(const SsTree& tree,
                                        const std::vector<Hypersphere>& queries,
                                        const DominanceCriterion& criterion,
                                        size_t k, ThreadPool* threads);

/// Same ids in the same order with bit-identical spheres.
bool SameAnswers(const std::vector<DataEntry>& a,
                 const std::vector<DataEntry>& b);
/// SameAnswers for every pair of results.
bool SameAnswers(const std::vector<KnnResult>& a,
                 const std::vector<KnnResult>& b);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Calls `build` (one untimed store build) for kWarmupSeconds; false as soon
/// as a build fails.
bool WarmUp(const std::function<bool()>& build);

/// Hands memory the allocator holds free back to the system, so each set-up
/// round builds its store on a heap like a fresh process's. Without it, how
/// much of the previous round's freed store is reused varies from run to
/// run, and rss_mb with it (by one 5 MB shard block on sharded_highd).
void ReleaseFreedMemory();

/// Closed-loop throughput is counted per bucket of this many seconds, and
/// capacity_qps is the median bucket: a stall that covers part of the
/// phase moves it far less than it moves the phase's mean.
inline constexpr double kBucketSeconds = 0.5;

/// Counts one completion at `done` into its bucket since `start`.
void CountCompletion(Clock::time_point start, Clock::time_point done,
                     std::vector<uint32_t>* buckets);

/// Median requests/s over the buckets that lie wholly inside a phase of
/// `seconds`.
double MedianBucketRate(const std::vector<uint32_t>& buckets, double seconds);

bool WriteTextFile(const std::string& path, const std::string& body);

/// Writes the tracer's records as a Chrome trace to `file` in the run's
/// trace directory; a failed write fails the run (check trace_files).
void SaveTrace(const RunOptions& options, const std::string& file,
               Report* report);

/// Count and sum of one registry histogram, for before/after deltas.
struct HistTotals {
  uint64_t count = 0;
  uint64_t sum = 0;

  double MeanMicros() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count) /
                            1e3;
  }
};

/// The registry instruments the per-layer metrics are read from. Take()
/// reads them all; subtracting two snapshots gives the window's activity.
struct RegistrySnapshot {
  uint64_t knn_queries = 0;
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned = 0;
  uint64_t entries_accessed = 0;
  uint64_t dominance_checks = 0;
  uint64_t pruned_case2 = 0;
  uint64_t shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t exec_tasks = 0;
  uint64_t compactions = 0;
  uint64_t conflicts = 0;
  HistTotals knn_duration;
  HistTotals server_request;
  HistTotals shard_merge;
  HistTotals compaction;
  HistTotals index_build;

  static RegistrySnapshot Take();
  RegistrySnapshot operator-(const RegistrySnapshot& before) const;
};

}  // namespace bench
}  // namespace hyperdom

#endif  // HYPERDOM_BENCH_BENCH_H_

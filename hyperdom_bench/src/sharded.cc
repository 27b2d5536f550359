// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The sharded_highd workload: shard::ShardedKnn called in-process over K
// hash shards of SS-trees, scattered on a pool of kConnections threads, by
// one closed-loop caller. No server is on the path.
//
// A run is: seeded data and query pool; untimed store builds for
// kWarmupSeconds, then kSetupRepeats timed store builds up to the first
// answered query (setup_s); reference answers from one unsharded SS-tree
// over the same data; every pool query scattered once and compared bit for
// bit; then the timed loop, whose every answer is compared with the
// reference too, and whose process CPU time per call is cpu_us_per_req. A traced run spends half of --seconds untraced and half
// with the tracer on and the TimedCriterion as the criterion; per-layer
// metrics come from that half.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "shard/sharded_query.h"
#include "shard/sharded_store.h"
#include "timed_criterion.h"

namespace hyperdom {
namespace bench {
namespace {

struct Tally {
  std::vector<double> us;
  std::vector<uint32_t> buckets;  ///< completions per bucket
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  double cpu_s = 0.0;  ///< process CPU time over the loop
  // Filled only in the traced half, from KnnResult stats.
  QueryTotals layers;            ///< traversal counts summed over the shards
  uint64_t unsharded_nodes = 0;  ///< Σ reference nodes visited, same queries
  double imbalance_sum = 0.0;    ///< Σ per query of max / mean shard nodes
};

Tally Loop(const shard::ShardedStore& store, const Inputs& inputs,
           const std::vector<KnnResult>& reference,
           const DominanceCriterion& criterion, size_t k, ThreadPool* threads,
           double seconds, uint64_t seed, bool traced) {
  Tally t;
  Rng rng(seed);
  KnnOptions options;
  options.k = k;
  std::vector<KnnStats> per_shard;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point end =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const size_t q = static_cast<size_t>(rng.UniformU64(inputs.pool.size()));
    ++t.attempted;
    const Clock::time_point start = Clock::now();
    Result<KnnResult> got = Status::Internal("not run");
    {
      obs::Span span("bench/sharded_knn");
      got = shard::ShardedKnn(store, inputs.pool[q], criterion, options,
                              threads, traced ? &per_shard : nullptr);
    }
    const Clock::time_point done = Clock::now();
    if (!got.ok()) {
      ++t.failed;
      continue;
    }
    t.us.push_back(MicrosSince(start, done));
    CountCompletion(begin, done, &t.buckets);
    if (got->completeness != Completeness::kExact ||
        !SameAnswers(got->answers, reference[q].answers)) {
      ++t.mismatches;
    }
    if (!traced) continue;
    uint64_t max_nodes = 0;
    uint64_t sum_nodes = 0;
    for (const KnnStats& s : per_shard) {
      max_nodes = std::max(max_nodes, s.nodes_visited);
      sum_nodes += s.nodes_visited;
      t.layers.nodes_pruned += s.nodes_pruned;
      t.layers.entries_accessed += s.entries_accessed;
    }
    t.layers.nodes_visited += sum_nodes;
    t.layers.answers += got->answers.size();
    // The merged stats add the merge's own checks to the shards'.
    t.layers.dominance_checks += got->stats.dominance_checks;
    t.layers.pruned_case2 += got->stats.pruned_case2;
    t.unsharded_nodes += reference[q].stats.nodes_visited;
    t.imbalance_sum +=
        Ratio(static_cast<double>(max_nodes),
              static_cast<double>(sum_nodes) /
                  static_cast<double>(per_shard.size()));
  }
  t.cpu_s = ProcessCpuSeconds() - cpu_start;
  std::sort(t.us.begin(), t.us.end());
  return t;
}

// Mean duration of one shard traversal (shard/query spans in the ring).
double MeanShardQueryNs(const std::vector<obs::TraceRecord>& records) {
  double sum_ns = 0.0;
  uint64_t n = 0;
  for (const obs::TraceRecord& r : records) {
    if (r.name != "shard/query") continue;
    sum_ns += static_cast<double>(r.dur_ns);
    ++n;
  }
  return Ratio(sum_ns, static_cast<double>(n));
}

}  // namespace

void RunSharded(const RunOptions& options, Report* report) {
  const Workload w = Scaled(options);
  const Inputs inputs = MakeInputs(w, options);
  const std::unique_ptr<DominanceCriterion> criterion =
      MakeCriterion(CriterionKind::kHyperbola);
  ThreadPool threads(kConnections);
  KnnOptions knn;
  knn.k = w.k;
  shard::ShardingOptions sharding;
  sharding.shards = w.shards;

  if (!WarmUp([&] {
        shard::ShardedStore s;
        return shard::ShardedStore::Build(inputs.data, sharding, &s).ok();
      })) {
    report->Check("setup", 0, false);
    return;
  }

  // Set-up: the median of kSetupRepeats (store build + first answer).
  if (options.traced()) obs::Tracer::Instance().Enable(kTraceCapacity);
  shard::ShardedStore store;
  std::vector<double> setup_s;
  const RegistrySnapshot before_setup = RegistrySnapshot::Take();
  for (size_t round = 0; round < kSetupRepeats; ++round) {
    store = shard::ShardedStore();
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    Status built;
    {
      obs::Span span("bench/store_build");
      built = shard::ShardedStore::Build(inputs.data, sharding, &store);
    }
    if (!built.ok() ||
        !shard::ShardedKnn(store, inputs.pool[0], *criterion, knn, &threads)
             .ok()) {
      report->Check("setup", round, false);
      return;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  const RegistrySnapshot setup = RegistrySnapshot::Take() - before_setup;
  const double setup_rss_mb = PeakRssMb();
  report->Check("setup", kSetupRepeats, true);
  if (options.traced()) {
    obs::Tracer::Instance().Disable();
    SaveTrace(options, "setup.trace.json", report);
  }

  // Reference answers from one unsharded SS-tree; every pool query once
  // through the sharded engine.
  SsTree unsharded(w.dim);
  if (!unsharded.BulkLoadStr(inputs.data).ok()) {
    report->Check("reference", 0, false);
    return;
  }
  const std::vector<KnnResult> reference =
      ReferenceAnswers(unsharded, inputs.pool, *criterion, w.k, &threads);
  uint64_t mismatches = 0;
  for (size_t q = 0; q < inputs.pool.size(); ++q) {
    const Result<KnnResult> got =
        shard::ShardedKnn(store, inputs.pool[q], *criterion, knn, &threads);
    if (!got.ok() || got->completeness != Completeness::kExact ||
        !SameAnswers(got->answers, reference[q].answers)) {
      ++mismatches;
    }
  }
  report->Check("reference", inputs.pool.size(), mismatches == 0);
  if (options.smoke) {
    // The decorator must not change a single answer.
    report->Check("timed_criterion", inputs.pool.size(),
                  SameAnswers(ReferenceAnswers(unsharded, inputs.pool,
                                               TimedCriterion(criterion.get()),
                                               w.k, &threads),
                              reference));
  }

  // The timed window.
  const double share = options.traced() ? 0.5 : 1.0;
  const Tally plain =
      Loop(store, inputs, reference, *criterion, w.k, &threads,
           options.seconds * share, options.StreamSeed(100), false);
  const TimedCriterion timed(criterion.get());
  Tally traced;
  RegistrySnapshot window;
  std::vector<obs::TraceRecord> records;
  if (options.traced()) {
    const RegistrySnapshot before = RegistrySnapshot::Take();
    obs::Tracer::Instance().Enable(kTraceCapacity);
    traced = Loop(store, inputs, reference, timed, w.k, &threads,
                  options.seconds * share, options.StreamSeed(101), true);
    obs::Tracer::Instance().Disable();
    window = RegistrySnapshot::Take() - before;
    records = obs::Tracer::Instance().Records();
    SaveTrace(options, "window.trace.json", report);
  }
  const double window_rss_mb = PeakRssMb();
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  report->Requests(attempted, failed);
  report->Check("window", plain.us.size() + traced.us.size(),
                plain.mismatches + traced.mismatches == 0);

  // End-to-end metrics, from the untraced loop.
  const std::vector<double>& us = plain.us;
  report->Metric("setup_s", Median(setup_s), "s");
  ReportLatencies(us, "", report);
  report->Metric("cpu_us_per_req",
                 1e6 * Ratio(plain.cpu_s, static_cast<double>(plain.attempted)),
                 "us");
  report->Metric("capacity_qps",
                 MedianBucketRate(plain.buckets, options.seconds * share),
                 "1/s");
  report->Metric("answered_frac",
                 1.0 - Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                 "ratio");
  report->Metric("rss_mb", setup_rss_mb, "MB");
  report->Metric("rss_window_mb", window_rss_mb, "MB");
  report->Metric("index.build_s",
                 static_cast<double>(setup.index_build.sum) / 1e9 /
                     static_cast<double>(kSetupRepeats),
                 "s");
  if (!options.traced()) return;

  // Per-layer metrics, from the traced half.
  const double queries = static_cast<double>(traced.us.size());
  const double merge_us = window.shard_merge.MeanMicros();
  report->Metric("bench.trace_overhead_pct",
                 100.0 * (Ratio(Percentile(traced.us, 0.5),
                                Percentile(plain.us, 0.5)) -
                          1.0),
                 "%");
  QueryTotals q = traced.layers;
  q.queries = queries;
  q.knn_ns = MeanShardQueryNs(records) * static_cast<double>(w.shards) *
             queries;
  ReportQueryLayers(q, timed.Read(), report);
  // Everything in a ShardedKnn call except the merge: list set-up, the
  // scatter across the pool and the final filter.
  report->Metric("shard.scatter_us",
                 Ratio(std::accumulate(traced.us.begin(), traced.us.end(),
                                       0.0),
                       queries) -
                     merge_us,
                 "us");
  report->Metric("shard.merge_us", merge_us, "us");
  report->Metric("shard.node_tax",
                 Ratio(static_cast<double>(q.nodes_visited),
                       static_cast<double>(traced.unsharded_nodes)),
                 "ratio");
  report->Metric("shard.imbalance", Ratio(traced.imbalance_sum, queries),
                 "ratio");
  report->Metric("exec.tasks_per_q",
                 Ratio(static_cast<double>(window.exec_tasks), queries),
                 "count");
}

}  // namespace bench
}  // namespace hyperdom

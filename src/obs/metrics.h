// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// log-scale latency histograms, exportable as Prometheus text or JSON.
//
// Hot-path cost model. Instruments are sharded by thread: each counter
// (and each histogram bucket array) is split into kShards cache-line-
// padded relaxed atomics, and a thread always touches the same shard, so
// an increment is one thread-local read plus one uncontended relaxed
// fetch_add — a few ns, no locks, no allocation. Registration (the name
// lookup) happens once per call site via a function-local static, so the
// string never appears on the hot path. Reads (Value(), Snapshot(),
// exports) merge the shards; they are racy-but-consistent like any
// monitoring read.
//
// Call sites use the HYPERDOM_COUNTER_* / HYPERDOM_HISTOGRAM_* macros
// below; they are compiled into every build.
//
// Naming convention (see docs/observability.md for the full catalogue):
// Prometheus style, `hyperdom_` prefix, `_total` suffix on counters,
// `_duration_ns` on latency histograms. Labels are baked into the
// registered name ("hyperdom_knn_queries_total{index=\"ss\"}"): the
// registry treats the full string as the key and the exporters emit it
// verbatim, which keeps the hot path free of label-set hashing.

#ifndef HYPERDOM_OBS_METRICS_H_
#define HYPERDOM_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hyperdom {
namespace obs {

/// Number of per-thread shards per instrument (power of two). Threads are
/// assigned shards round-robin at first use; more threads than shards only
/// means some contention, never lost updates.
inline constexpr size_t kShards = 16;

/// Histogram bucket count: bucket 0 holds the value 0, bucket i (1..64)
/// holds values v with 2^(i-1) <= v < 2^i, i.e. bit_width(v) == i.
inline constexpr size_t kHistogramBuckets = 65;

/// Returns this thread's shard index (assigned round-robin on first use).
size_t ThisThreadShard();

/// What a catalogue entry describes.
enum class MetricType { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram".
std::string_view MetricTypeName(MetricType type);

/// A documented metric: the un-labelled base name plus help text. Call
/// sites register instruments through these so the name catalogue
/// (`MetricCatalogue()`, the CLI `metrics` verb, docs/observability.md)
/// cannot drift from the code.
struct MetricDef {
  const char* name;
  const char* help;
  MetricType type;
};

namespace internal {
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// \brief Monotonic counter, sharded by thread.
class Counter {
 public:
  void Add(uint64_t n) {
    shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  /// Sum across shards (racy-but-consistent).
  uint64_t Value() const;

  /// Zeroes every shard. Not atomic with concurrent writers.
  void Reset();

 private:
  internal::PaddedCounter shards_[kShards];
};

/// \brief Last-write-wins gauge (a single relaxed atomic double).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged read-side view of a histogram.
struct HistogramSnapshot {
  uint64_t buckets[kHistogramBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Inclusive upper bound of bucket i (2^i - 1; bucket 0 holds only 0).
  static uint64_t BucketUpperBound(size_t i);
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// \brief Fixed-bucket log2-scale histogram, sharded by thread.
///
/// Designed for nanosecond latencies: 65 buckets cover 0 .. 2^64-1 with
/// one bucket per power of two, so Record() is a bit_width plus two
/// relaxed fetch_adds — no floating point, no search, no allocation.
class Histogram {
 public:
  void Record(uint64_t value) {
    Shard& s = shards_[ThisThreadShard()];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket index for a value: 0 for 0, else bit_width(value) (1..64).
  static size_t BucketIndex(uint64_t value);

  /// Merges all shards (racy-but-consistent).
  HistogramSnapshot Snapshot() const;

  /// Zeroes every shard. Not atomic with concurrent writers.
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

/// Prometheus exposition-format escaping for label values (`\` `"` and
/// newline) and HELP text (`\` and newline). Applied by LabeledName at
/// registration and by RenderPrometheus on HELP lines, per the text
/// exposition spec.
std::string PromEscapeLabelValue(std::string_view s);
std::string PromEscapeHelp(std::string_view s);

/// Builds the registered-name form "base{key=\"value\"}", escaping the
/// label value per the exposition format. Registration-time helper, not
/// for hot paths.
std::string LabeledName(std::string_view base, std::string_view label_key,
                        std::string_view label_value);

/// Multi-label form: "base{k1=\"v1\",k2=\"v2\"}". Pairs are emitted in the
/// order given (callers pick one canonical order so the same label set
/// always maps to the same registered name). Used for per-shard
/// instruments whose label values are computed at runtime, e.g.
/// `{index="ss",shard="3"}`.
std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// JSON string-body escaping (shared by the metric/trace/bench emitters).
std::string JsonEscape(std::string_view s);

/// \brief The process-wide registry.
///
/// Thread-safe. Instruments are created on first lookup and never
/// destroyed, so returned pointers stay valid for the process lifetime —
/// call sites cache them in function-local statics.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Lookup-or-create by full (possibly labelled) name. `help` is recorded
  /// on first creation; later calls may pass empty.
  Counter* GetCounter(std::string name, std::string_view help = "");
  Gauge* GetGauge(std::string name, std::string_view help = "");
  Histogram* GetHistogram(std::string name, std::string_view help = "");

  /// Convenience: register under `def.name` with an optional label pair.
  Counter* GetCounter(const MetricDef& def) {
    return GetCounter(def.name, def.help);
  }
  Counter* GetCounter(const MetricDef& def, std::string_view label_key,
                      std::string_view label_value) {
    return GetCounter(LabeledName(def.name, label_key, label_value),
                      def.help);
  }
  Histogram* GetHistogram(const MetricDef& def) {
    return GetHistogram(def.name, def.help);
  }
  Histogram* GetHistogram(const MetricDef& def, std::string_view label_key,
                          std::string_view label_value) {
    return GetHistogram(LabeledName(def.name, label_key, label_value),
                        def.help);
  }
  Gauge* GetGauge(const MetricDef& def, std::string_view label_key,
                  std::string_view label_value) {
    return GetGauge(LabeledName(def.name, label_key, label_value), def.help);
  }
  Gauge* GetGauge(const MetricDef& def) { return GetGauge(def.name, def.help); }

  /// Multi-label convenience forms (runtime label values; callers cache the
  /// returned pointer, it stays valid for the process lifetime).
  Counter* GetCounter(
      const MetricDef& def,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetCounter(LabeledName(def.name, labels), def.help);
  }
  Gauge* GetGauge(
      const MetricDef& def,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetGauge(LabeledName(def.name, labels), def.help);
  }
  Histogram* GetHistogram(
      const MetricDef& def,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels) {
    return GetHistogram(LabeledName(def.name, labels), def.help);
  }

  /// Zeroes every registered instrument (registrations and cached pointers
  /// stay valid). For tests and CLI runs that want a clean slate.
  void ResetAll();

  /// Prometheus text exposition format (HELP/TYPE per base name, one
  /// sample line per registered name, histogram _bucket/_sum/_count).
  std::string RenderPrometheus() const;

  /// JSON export, schema "hyperdom-metrics-v1" (see docs/observability.md).
  std::string RenderJson() const;

  /// Registered full names, sorted (for tests and the CLI metrics verb).
  std::vector<std::string> Names() const;

 private:
  MetricsRegistry() = default;

  template <typename T>
  T* GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
                 std::string name, std::string_view help);

  mutable std::mutex mu_;
  // std::map: stable pointers + deterministic export order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// The documented instrument catalogue (every MetricDef below, in
/// docs/observability.md order). The CLI `metrics` verb prints this.
const std::vector<MetricDef>& MetricCatalogue();

// ---------------------------------------------------------------------------
// The metric name catalogue. Every instrument the library registers is
// declared here so names cannot drift between call sites, the `metrics`
// verb, and docs/observability.md.
// ---------------------------------------------------------------------------

// kNN traversal (label index="ss"; mirrors KnnStats).
inline constexpr MetricDef kKnnQueries{
    "hyperdom_knn_queries_total", "kNN queries executed",
    MetricType::kCounter};
inline constexpr MetricDef kKnnBestEffort{
    "hyperdom_knn_best_effort_total",
    "kNN queries that expired a deadline and returned a best-effort answer",
    MetricType::kCounter};
inline constexpr MetricDef kKnnNodesVisited{
    "hyperdom_knn_nodes_visited_total", "index nodes expanded",
    MetricType::kCounter};
inline constexpr MetricDef kKnnNodesPruned{
    "hyperdom_knn_nodes_pruned_total", "subtrees cut by the distk bound",
    MetricType::kCounter};
inline constexpr MetricDef kKnnEntriesAccessed{
    "hyperdom_knn_entries_accessed_total",
    "data entries reaching list maintenance", MetricType::kCounter};
inline constexpr MetricDef kKnnDominanceChecks{
    "hyperdom_knn_dominance_checks_total",
    "criterion verdicts: one per candidate past position k (deferred mode), "
    "every interim check (eager mode)",
    MetricType::kCounter};
inline constexpr MetricDef kKnnPrunedCase2{
    "hyperdom_knn_pruned_case2_total",
    "entries dropped by dominance: by the final Sk (deferred mode), by the "
    "interim Sk in case 2 (eager mode)",
    MetricType::kCounter};
inline constexpr MetricDef kKnnPrunedCase3{
    "hyperdom_knn_pruned_case3_total", "entries dropped by distance (case 3)",
    MetricType::kCounter};
inline constexpr MetricDef kKnnRemovedCase1{
    "hyperdom_knn_removed_case1_total",
    "list entries evicted by an eviction sweep (eager mode only; always 0 "
    "in deferred mode)",
    MetricType::kCounter};
inline constexpr MetricDef kKnnUncertainVerdicts{
    "hyperdom_knn_uncertain_verdicts_total",
    "kUncertain verdicts seen by the pruner (never pruned on)",
    MetricType::kCounter};
inline constexpr MetricDef kKnnDeadlineSkippedNodes{
    "hyperdom_knn_deadline_skipped_nodes_total",
    "subtrees abandoned because a deadline expired", MetricType::kCounter};
inline constexpr MetricDef kKnnQueryDuration{
    "hyperdom_knn_query_duration_ns", "end-to-end kNN query latency",
    MetricType::kHistogram};

// Range queries (SS-tree).
inline constexpr MetricDef kRangeQueries{
    "hyperdom_range_queries_total", "range queries executed",
    MetricType::kCounter};

// Dominance criteria (labels criterion=, verdict=; recorded by the
// InstrumentedCriterion decorator, not inside the O(d) kernels).
inline constexpr MetricDef kCriterionVerdicts{
    "hyperdom_criterion_verdicts_total",
    "three-valued verdicts per criterion", MetricType::kCounter};
inline constexpr MetricDef kCriterionDecideDuration{
    "hyperdom_criterion_decide_duration_ns",
    "decide latency per verdict per criterion (a batch records its mean "
    "once per candidate)",
    MetricType::kHistogram};

// Certified escalation chain (label tier= on the resolution counter).
inline constexpr MetricDef kCertifiedCalls{
    "hyperdom_certified_calls_total", "CertifiedDominance::Decide calls",
    MetricType::kCounter};
inline constexpr MetricDef kCertifiedResolved{
    "hyperdom_certified_resolved_total",
    "decisive verdicts per escalation tier", MetricType::kCounter};
inline constexpr MetricDef kCertifiedUncertain{
    "hyperdom_certified_uncertain_total",
    "calls no tier could certify (verdict kUncertain)", MetricType::kCounter};

// Index builds (label index=).
inline constexpr MetricDef kIndexBuilds{
    "hyperdom_index_builds_total", "index build/bulk-load operations",
    MetricType::kCounter};
inline constexpr MetricDef kIndexBuildDuration{
    "hyperdom_index_build_duration_ns", "index build latency",
    MetricType::kHistogram};
inline constexpr MetricDef kIndexSize{
    "hyperdom_index_size_entries", "entries in the most recently built index",
    MetricType::kGauge};

// Robustness layer (docs/robustness.md §6–§8).
inline constexpr MetricDef kDeadlineExpired{
    "hyperdom_deadline_expired_total",
    "traversals that saw their deadline/budget expire",
    MetricType::kCounter};
inline constexpr MetricDef kFaultInjected{
    "hyperdom_fault_injected_total",
    "fault-injection firings (label site=)", MetricType::kCounter};
inline constexpr MetricDef kSnapshotOps{
    "hyperdom_snapshot_ops_total",
    "snapshot operations (labels op=save|load, result=ok|error)",
    MetricType::kCounter};
inline constexpr MetricDef kSnapshotDuration{
    "hyperdom_snapshot_duration_ns", "snapshot save/load latency (label op=)",
    MetricType::kHistogram};

// Live mutability (src/index/mutable_ss_tree.h, src/storage/epoch.h;
// docs/robustness.md §10).
inline constexpr MetricDef kStoreMutations{
    "hyperdom_store_mutations_total",
    "live-store mutations (labels op=insert|remove, "
    "result=ok|conflict|error)",
    MetricType::kCounter};
inline constexpr MetricDef kStoreLive{
    "hyperdom_store_live_entries",
    "live entries in the most recently published store version",
    MetricType::kGauge};
inline constexpr MetricDef kStoreTombstones{
    "hyperdom_store_tombstone_entries",
    "tombstoned (deleted, not yet compacted) entries in the most recently "
    "published store version",
    MetricType::kGauge};
inline constexpr MetricDef kStoreEpochLag{
    "hyperdom_store_epoch_lag",
    "reclamation epochs the slowest active reader is behind the writer",
    MetricType::kGauge};
inline constexpr MetricDef kStoreCompactions{
    "hyperdom_store_compactions_total",
    "compaction runs (label result=ok|error)", MetricType::kCounter};
inline constexpr MetricDef kStoreCompactionDuration{
    "hyperdom_store_compaction_duration_ns",
    "wall time of one compaction (gather + rebuild + publish)",
    MetricType::kHistogram};
inline constexpr MetricDef kSnapshotRebuildFallback{
    "hyperdom_snapshot_rebuild_fallback_total",
    "LoadSnapshotOrRebuild calls that fell back to an index rebuild "
    "because the snapshot was missing or corrupt",
    MetricType::kCounter};

// Evaluation harness (label phase=dominance|knn; recorded by a
// ScopedTimer around each experiment run).
inline constexpr MetricDef kExperimentDuration{
    "hyperdom_experiment_duration_ns", "wall time of one experiment run",
    MetricType::kHistogram};

// Parallel batch execution (src/exec/; see docs/performance.md).
inline constexpr MetricDef kExecPoolThreads{
    "hyperdom_exec_pool_threads",
    "workers in the most recently created thread pool", MetricType::kGauge};
inline constexpr MetricDef kExecTasks{
    "hyperdom_exec_tasks_total", "tasks submitted to thread pools",
    MetricType::kCounter};
inline constexpr MetricDef kBatchRuns{
    "hyperdom_batch_runs_total",
    "batch query runs (label kind=knn|range)", MetricType::kCounter};
inline constexpr MetricDef kBatchQueries{
    "hyperdom_batch_queries_total",
    "queries executed through the batch engine (label kind=)",
    MetricType::kCounter};
inline constexpr MetricDef kBatchDuration{
    "hyperdom_batch_duration_ns",
    "end-to-end wall time of one batch run (label kind=)",
    MetricType::kHistogram};

// The tracer's own health.
inline constexpr MetricDef kTraceDropped{
    "hyperdom_trace_dropped_total",
    "trace records evicted from the ring buffer", MetricType::kCounter};

// Network front-end (src/server/; see docs/robustness.md §9).
inline constexpr MetricDef kServerConnections{
    "hyperdom_server_connections_total", "client connections accepted",
    MetricType::kCounter};
inline constexpr MetricDef kServerActiveConnections{
    "hyperdom_server_active_connections", "currently open client connections",
    MetricType::kGauge};
inline constexpr MetricDef kServerRequests{
    "hyperdom_server_requests_total",
    "requests served (label kind=knn|ping|insert|remove)",
    MetricType::kCounter};
inline constexpr MetricDef kServerQueueDepth{
    "hyperdom_server_queue_depth", "requests waiting for an admission permit",
    MetricType::kGauge};
inline constexpr MetricDef kServerShed{
    "hyperdom_server_shed_total",
    "requests rejected with kOverloaded (queue full or draining)",
    MetricType::kCounter};
inline constexpr MetricDef kServerProtocolErrors{
    "hyperdom_server_protocol_errors_total",
    "frames rejected by validation (bad magic/CRC/size/kind)",
    MetricType::kCounter};
inline constexpr MetricDef kServerBestEffort{
    "hyperdom_server_best_effort_total",
    "responses flagged kBestEffort after a deadline expired",
    MetricType::kCounter};
inline constexpr MetricDef kServerRequestDuration{
    "hyperdom_server_request_duration_ns",
    "admission-to-response latency per request", MetricType::kHistogram};

// Sharded scatter-gather engine (src/shard/; see docs/performance.md
// "Sharding"). Per-shard instruments carry a shard= label whose value is
// the shard index rendered in decimal.
inline constexpr MetricDef kShardCount{
    "hyperdom_shard_count", "shards in the most recently built sharded store",
    MetricType::kGauge};
inline constexpr MetricDef kShardSizeEntries{
    "hyperdom_shard_size_entries",
    "entries owned by one shard of the most recently built sharded store "
    "(label shard=)",
    MetricType::kGauge};
inline constexpr MetricDef kShardQueries{
    "hyperdom_shard_queries_total",
    "per-shard traversals executed by the scatter-gather engine "
    "(label shard=)",
    MetricType::kCounter};
inline constexpr MetricDef kShardMergeDuration{
    "hyperdom_shard_merge_duration_ns",
    "gather-phase latency merging per-shard best-known lists",
    MetricType::kHistogram};

// Admin plane + structured logging (src/server/admin.h, src/obs/log.h;
// docs/observability.md "Admin plane").
inline constexpr MetricDef kSlowQueries{
    "hyperdom_slow_queries_total",
    "queries above the slow-query threshold (each emits one "
    "hyperdom-slowlog-v1 record)",
    MetricType::kCounter};
inline constexpr MetricDef kAdminRequests{
    "hyperdom_admin_requests_total",
    "admin HTTP requests answered 200 (label endpoint=)",
    MetricType::kCounter};
inline constexpr MetricDef kAdminHttpErrors{
    "hyperdom_admin_http_errors_total",
    "admin HTTP requests rejected (label code=400|404|405|431)",
    MetricType::kCounter};
inline constexpr MetricDef kLogLines{
    "hyperdom_log_lines_total", "structured log lines emitted (label level=)",
    MetricType::kCounter};

}  // namespace obs
}  // namespace hyperdom

// ---------------------------------------------------------------------------
// Hot-path macros. Each call site caches its instrument pointer in a
// function-local static, so after the first execution the cost is the
// sharded atomic op alone.
// ---------------------------------------------------------------------------

#define HYPERDOM_COUNTER_ADD(def, n)                              \
  do {                                                            \
    static ::hyperdom::obs::Counter* const _hyperdom_counter =    \
        ::hyperdom::obs::MetricsRegistry::Instance().GetCounter(  \
            def);                                                 \
    _hyperdom_counter->Add(n);                                    \
  } while (false)

#define HYPERDOM_COUNTER_INC(def) HYPERDOM_COUNTER_ADD(def, 1)

/// Labelled variant: `key` and `value` must be string literals (the name is
/// assembled once, in the static initializer).
#define HYPERDOM_COUNTER_ADD_L(def, key, value, n)                \
  do {                                                            \
    static ::hyperdom::obs::Counter* const _hyperdom_counter =    \
        ::hyperdom::obs::MetricsRegistry::Instance().GetCounter(  \
            def, key, value);                                     \
    _hyperdom_counter->Add(n);                                    \
  } while (false)

#define HYPERDOM_COUNTER_INC_L(def, key, value) \
  HYPERDOM_COUNTER_ADD_L(def, key, value, 1)

#define HYPERDOM_HISTOGRAM_RECORD(def, v)                          \
  do {                                                             \
    static ::hyperdom::obs::Histogram* const _hyperdom_histogram = \
        ::hyperdom::obs::MetricsRegistry::Instance().GetHistogram( \
            def);                                                  \
    _hyperdom_histogram->Record(v);                                \
  } while (false)

#define HYPERDOM_HISTOGRAM_RECORD_L(def, key, value, v)            \
  do {                                                             \
    static ::hyperdom::obs::Histogram* const _hyperdom_histogram = \
        ::hyperdom::obs::MetricsRegistry::Instance().GetHistogram( \
            def, key, value);                                      \
    _hyperdom_histogram->Record(v);                                \
  } while (false)

/// Gauges are last-write-wins; `def` must be a MetricDef with kGauge type.
#define HYPERDOM_GAUGE_SET(def, v)                              \
  do {                                                          \
    static ::hyperdom::obs::Gauge* const _hyperdom_gauge =      \
        ::hyperdom::obs::MetricsRegistry::Instance().GetGauge(  \
            (def).name, (def).help);                            \
    _hyperdom_gauge->Set(v);                                    \
  } while (false)

/// Labelled gauge variant: `key` and `value` must be string literals (the
/// name is assembled once, in the static initializer). Runtime label
/// values (e.g. a shard index) must instead cache a pointer from
/// MetricsRegistry::GetGauge(def, {{key, value}}).
#define HYPERDOM_GAUGE_SET_L(def, key, value, v)                \
  do {                                                          \
    static ::hyperdom::obs::Gauge* const _hyperdom_gauge =      \
        ::hyperdom::obs::MetricsRegistry::Instance().GetGauge(  \
            def, key, value);                                   \
    _hyperdom_gauge->Set(v);                                    \
  } while (false)

#endif  // HYPERDOM_OBS_METRICS_H_

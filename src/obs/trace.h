// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Span-based tracing. A Span is an RAII scope: construction notes the
// start time and links to the enclosing span on the same thread (a
// thread-local stack), destruction pushes a completed record into the
// process-wide Tracer's ring buffer. Instant events can be attached to
// the active span from anywhere (deadline expiry, fault firings) without
// plumbing a span handle through the call chain.
//
// The tracer is OFF by default: a Span constructed while the tracer is
// disabled does a single relaxed atomic load and nothing else, so spans
// can sit on per-query paths unconditionally. When enabled (CLI
// --trace-out, tests), completed records accumulate in a fixed-capacity
// ring; on overflow the oldest records are evicted and counted in
// hyperdom_trace_dropped_total, never blocking the writer.
//
// Export is Chrome trace_event JSON ("traceEvents" array of complete "X"
// and instant "i" events, timestamps in microseconds) — load the file in
// chrome://tracing or https://ui.perfetto.dev.
//
// Span taxonomy (docs/observability.md): knn/query, index/build,
// snapshot/save, snapshot/load, certified/escalate; event names:
// deadline_expired, fault/<site>.

#ifndef HYPERDOM_OBS_TRACE_H_
#define HYPERDOM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hyperdom {
namespace obs {

/// One key/value annotation; numeric values are exported unquoted so
/// tools (and the reconciliation tests) can sum them.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

/// A completed span or an instant event, as stored in the ring.
struct TraceRecord {
  std::string name;
  uint64_t id = 0;      ///< unique per tracer-enable session; 0 for events
  uint64_t parent = 0;  ///< enclosing span's id; 0 at top level
  uint32_t tid = 0;     ///< small per-thread integer, stable per thread
  int64_t start_ns = 0; ///< relative to the tracer's enable time
  int64_t dur_ns = 0;
  bool instant = false;
  std::vector<TraceArg> args;
};

/// \brief Process-wide span sink (fixed-capacity ring buffer).
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  static Tracer& Instance();

  /// Starts a capture: clears the ring, re-bases timestamps, sets the
  /// capacity, and enables span recording.
  void Enable(size_t capacity = kDefaultCapacity);

  /// Stops recording; captured records stay readable until Enable/Clear.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all captured records (keeps the enabled state and capacity).
  void Clear();

  /// Records evicted because the ring was full, this capture.
  uint64_t dropped() const;

  /// Snapshot of the captured records in arrival order.
  std::vector<TraceRecord> Records() const;

  /// Chrome trace_event JSON of the captured records.
  std::string RenderChromeTrace() const;

  // Internal API used by Span.
  uint64_t NextSpanId();
  int64_t NowNs() const;
  void Record(TraceRecord&& record);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  int64_t epoch_ns_ = 0;

  mutable std::mutex mu_;
  size_t capacity_ = kDefaultCapacity;
  size_t head_ = 0;  // index of the oldest record once wrapped
  bool wrapped_ = false;
  uint64_t dropped_ = 0;
  std::vector<TraceRecord> ring_;
};

/// \brief RAII trace span.
///
/// Construct on the stack; destruction records the completed span. A span
/// constructed while the tracer is disabled is inert (active() == false)
/// and every method is a cheap no-op. Not copyable or movable: the
/// thread-local parent stack assumes strict LIFO scoping.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  void Annotate(std::string_view key, std::string_view value);
  void Annotate(std::string_view key, uint64_t value);
  void Annotate(std::string_view key, int64_t value);

  /// Records an instant event parented to this span.
  void Event(std::string_view name);

  /// The innermost active span on this thread (nullptr when none).
  static Span* Current();

  /// Records an instant event on the current span — or as a top-level
  /// event when no span is active. No-op while the tracer is disabled.
  static void CurrentEvent(std::string_view name);

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint32_t tid_ = 0;
  int64_t start_ns_ = 0;
  std::string name_;
  std::vector<TraceArg> args_;
  Span* prev_ = nullptr;  // enclosing span, restored on destruction
};

}  // namespace obs
}  // namespace hyperdom

/// Declares an RAII span named `var` covering the rest of the scope.
#define HYPERDOM_SPAN(var, name) ::hyperdom::obs::Span var(name)

/// Adds a key/value annotation. The value expression is always evaluated;
/// an inert span (tracer disabled) drops it.
#define HYPERDOM_SPAN_ANNOTATE(var, key, value) (var).Annotate(key, value)

/// Instant event on the innermost active span of this thread.
#define HYPERDOM_SPAN_EVENT_CURRENT(name) \
  ::hyperdom::obs::Span::CurrentEvent(name)

#endif  // HYPERDOM_OBS_TRACE_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Wall-clock timing utilities for the experiment harness.

#ifndef HYPERDOM_COMMON_STOPWATCH_H_
#define HYPERDOM_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace hyperdom {

/// \brief Monotonic wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the start time to now.
  void Restart() { start_ = Clock::now(); }

  /// Nanoseconds elapsed since construction or the last Restart().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  /// ElapsedNanos() clamped to >= 0 and widened for histogram recording.
  /// (steady_clock never goes backwards; the clamp guards arithmetic on
  /// the cast, not the clock.)
  uint64_t ElapsedNs() const {
    const int64_t ns = ElapsedNanos();
    return ns > 0 ? static_cast<uint64_t>(ns) : 0;
  }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "Stopwatch requires a monotonic clock: timings must never "
                "jump with wall-clock adjustments");
  Clock::time_point start_;
};

/// \brief RAII timer recording its scope's duration into a registry
/// histogram on destruction.
///
/// Prefer the HYPERDOM_SCOPED_TIMER / HYPERDOM_SCOPED_TIMER_L macros,
/// which cache the histogram handle.
class ScopedTimer {
 public:
  explicit ScopedTimer(obs::Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(watch_.ElapsedNs());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  obs::Histogram* histogram_;
  Stopwatch watch_;
};

/// Times the rest of the scope into `def`'s histogram.
#define HYPERDOM_SCOPED_TIMER(var, def)                              \
  static ::hyperdom::obs::Histogram* const _hyperdom_timer_##var =   \
      ::hyperdom::obs::MetricsRegistry::Instance().GetHistogram(def); \
  ::hyperdom::ScopedTimer var(_hyperdom_timer_##var)

/// Labelled variant; `key` and `value` must be string literals.
#define HYPERDOM_SCOPED_TIMER_L(var, def, key, value)                \
  static ::hyperdom::obs::Histogram* const _hyperdom_timer_##var =   \
      ::hyperdom::obs::MetricsRegistry::Instance().GetHistogram(     \
          def, key, value);                                          \
  ::hyperdom::ScopedTimer var(_hyperdom_timer_##var)

/// Prevents the compiler from optimizing away a computed value
/// (google-benchmark's DoNotOptimize, usable outside benchmark binaries).
template <typename T>
inline void DoNotOptimizeAway(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace hyperdom

#endif  // HYPERDOM_COMMON_STOPWATCH_H_

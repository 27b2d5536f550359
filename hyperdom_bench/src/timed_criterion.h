// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The benchmark's view of the dominance layer: a DominanceCriterion
// decorator that counts candidates and times every decide call on the way
// through, used only in the traced half of a run.
//
// It overrides all three decide entry points and forwards each to the SAME
// entry point of the wrapped criterion. That matters for the batch call:
// InstrumentedCriterion (src/dominance/instrumented.h) inherits the serial
// default DecideVerdictBatch loop, which silently replaces Hyperbola's
// hoisted batch kernel, so a traced run built on it would time a different
// program. Verdicts are the wrapped criterion's, bit for bit; the traced
// half's answers are checked against the untraced reference like any other.
//
// Counts go to obs::Counter instances owned by the decorator (sharded by
// thread, so server workers do not contend on one cache line) rather than
// to the registry or to spans: one span per decide call would swamp the
// trace ring.

#ifndef HYPERDOM_BENCH_TIMED_CRITERION_H_
#define HYPERDOM_BENCH_TIMED_CRITERION_H_

#include <chrono>
#include <cstdint>

#include "dominance/criterion.h"
#include "obs/metrics.h"

namespace hyperdom {
namespace bench {

class TimedCriterion final : public DominanceCriterion {
 public:
  /// Borrows `inner`, which must outlive the decorator.
  explicit TimedCriterion(const DominanceCriterion* inner) : inner_(inner) {}

  using DominanceCriterion::DecideVerdict;
  using DominanceCriterion::Dominates;

  bool Dominates(SphereView sa, SphereView sb, SphereView sq) const override {
    const auto start = std::chrono::steady_clock::now();
    const bool dominates = inner_->Dominates(sa, sb, sq);
    RecordSerial(start);
    return dominates;
  }

  Verdict DecideVerdict(SphereView sa, SphereView sb,
                        SphereView sq) const override {
    const auto start = std::chrono::steady_clock::now();
    const Verdict verdict = inner_->DecideVerdict(sa, sb, sq);
    RecordSerial(start);
    return verdict;
  }

  void DecideVerdictBatch(SphereView sa, const SphereView* sbs, size_t count,
                          SphereView sq, Verdict* out) const override {
    const auto start = std::chrono::steady_clock::now();
    inner_->DecideVerdictBatch(sa, sbs, count, sq, out);
    ns_.Add(ElapsedNs(start));
    batch_calls_.Inc();
    batch_candidates_.Add(count);
  }

  std::string_view name() const override { return inner_->name(); }
  bool is_correct() const override { return inner_->is_correct(); }
  bool is_sound() const override { return inner_->is_sound(); }

  struct Totals {
    uint64_t serial_calls = 0;
    uint64_t batch_calls = 0;
    uint64_t batch_candidates = 0;
    uint64_t ns = 0;

    uint64_t candidates() const { return serial_calls + batch_candidates; }
  };

  Totals Read() const {
    return Totals{serial_calls_.Value(), batch_calls_.Value(),
                  batch_candidates_.Value(), ns_.Value()};
  }

 private:
  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  void RecordSerial(std::chrono::steady_clock::time_point start) const {
    ns_.Add(ElapsedNs(start));
    serial_calls_.Inc();
  }

  const DominanceCriterion* inner_;
  mutable obs::Counter serial_calls_;
  mutable obs::Counter batch_calls_;
  mutable obs::Counter batch_candidates_;
  mutable obs::Counter ns_;
};

}  // namespace bench
}  // namespace hyperdom

#endif  // HYPERDOM_BENCH_TIMED_CRITERION_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// A DominanceCriterion decorator that records decide latency (one
// observation per verdict) and verdict outcomes into the metrics registry.
// Instrumentation lives in a wrapper — not inside the criterion kernels —
// so that raw criteria stay benchmarkable at their true cost
// (bench/micro_criteria.cc measures Dominates() at ~15 ns; even one atomic
// increment would distort that) and callers opt in where per-criterion
// observability is worth ~20 ns/call.
//
// Metrics (labelled with the wrapped criterion's name):
//   hyperdom_criterion_verdicts_total{criterion=,verdict=}
//   hyperdom_criterion_decide_duration_ns{criterion=}

#ifndef HYPERDOM_DOMINANCE_INSTRUMENTED_H_
#define HYPERDOM_DOMINANCE_INSTRUMENTED_H_

#include <memory>

#include "dominance/criterion.h"

namespace hyperdom {

/// \brief Metrics-recording wrapper around any DominanceCriterion.
///
/// Forwards name()/is_correct()/is_sound() to the wrapped criterion;
/// Dominates() and DecideVerdict() time the inner call and count the
/// outcome. DecideVerdictBatch() forwards the whole block to the wrapped
/// criterion's own batch entry point (so a wrapped Hyperbola keeps its
/// hoisted batch kernel), counts every verdict, and records one latency
/// observation per candidate at the block's mean time, so the histogram's
/// count still equals the verdict total. Thread-compatible, like the
/// criteria themselves. When the library is built with
/// HYPERDOM_OBSERVABILITY=OFF the wrapper still forwards correctly but
/// records nothing.
class InstrumentedCriterion final : public DominanceCriterion {
 public:
  /// Takes ownership of `inner`, which must not be null.
  explicit InstrumentedCriterion(std::unique_ptr<DominanceCriterion> inner);
  ~InstrumentedCriterion() override;

  using DominanceCriterion::Dominates;
  using DominanceCriterion::DecideVerdict;
  bool Dominates(SphereView sa, SphereView sb, SphereView sq) const override;
  Verdict DecideVerdict(SphereView sa, SphereView sb,
                        SphereView sq) const override;
  void DecideVerdictBatch(SphereView sa, const SphereView* sbs, size_t count,
                          SphereView sq, Verdict* out) const override;

  std::string_view name() const override { return inner_->name(); }
  bool is_correct() const override { return inner_->is_correct(); }
  bool is_sound() const override { return inner_->is_sound(); }

  const DominanceCriterion& inner() const { return *inner_; }

 private:
  void RecordOutcome(Verdict v, uint64_t elapsed_ns) const;

  std::unique_ptr<DominanceCriterion> inner_;
  // Per-instance instrument handles, resolved once in the constructor from
  // the wrapped criterion's name (macro-style static caching would collapse
  // all criterion names onto one label).
  struct Instruments;
  std::unique_ptr<Instruments> instruments_;
};

/// Convenience: MakeCriterion(kind) wrapped in an InstrumentedCriterion.
std::unique_ptr<DominanceCriterion> MakeInstrumentedCriterion(
    CriterionKind kind);

}  // namespace hyperdom

#endif  // HYPERDOM_DOMINANCE_INSTRUMENTED_H_

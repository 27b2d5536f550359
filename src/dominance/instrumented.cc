// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "dominance/instrumented.h"

#include <cassert>
#include <chrono>

#include "obs/metrics.h"

namespace hyperdom {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string VerdictCounterName(std::string_view criterion,
                               std::string_view verdict) {
  std::string name(obs::kCriterionVerdicts.name);
  name.append("{criterion=\"").append(criterion);
  name.append("\",verdict=\"").append(verdict).append("\"}");
  return name;
}

}  // namespace

InstrumentedCriterion::InstrumentedCriterion(
    std::unique_ptr<DominanceCriterion> inner)
    : inner_(std::move(inner)) {
  assert(inner_ != nullptr);
  // Handles are resolved per instance, not via the macros' function-local
  // statics: the label value (the criterion's name) differs per instance.
  auto& registry = obs::MetricsRegistry::Instance();
  const std::string_view n = inner_->name();
  dominates_ = registry.GetCounter(VerdictCounterName(n, "dominates"),
                                   obs::kCriterionVerdicts.help);
  not_dominates_ = registry.GetCounter(
      VerdictCounterName(n, "not_dominates"), obs::kCriterionVerdicts.help);
  uncertain_ = registry.GetCounter(VerdictCounterName(n, "uncertain"),
                                   obs::kCriterionVerdicts.help);
  latency_ =
      registry.GetHistogram(obs::kCriterionDecideDuration, "criterion", n);
}

void InstrumentedCriterion::RecordOutcome(Verdict v,
                                          uint64_t elapsed_ns) const {
  switch (v) {
    case Verdict::kDominates:
      dominates_->Add(1);
      break;
    case Verdict::kNotDominates:
      not_dominates_->Add(1);
      break;
    case Verdict::kUncertain:
      uncertain_->Add(1);
      break;
  }
  latency_->Record(elapsed_ns);
}

bool InstrumentedCriterion::Dominates(SphereView sa, SphereView sb,
                                      SphereView sq) const {
  const int64_t start = NowNs();
  const bool dominates = inner_->Dominates(sa, sb, sq);
  RecordOutcome(dominates ? Verdict::kDominates : Verdict::kNotDominates,
                static_cast<uint64_t>(NowNs() - start));
  return dominates;
}

Verdict InstrumentedCriterion::DecideVerdict(SphereView sa, SphereView sb,
                                             SphereView sq) const {
  const int64_t start = NowNs();
  const Verdict v = inner_->DecideVerdict(sa, sb, sq);
  RecordOutcome(v, static_cast<uint64_t>(NowNs() - start));
  return v;
}

void InstrumentedCriterion::DecideVerdictBatch(SphereView sa,
                                               const SphereView* sbs,
                                               size_t count, SphereView sq,
                                               Verdict* out) const {
  if (count == 0) return;
  const int64_t start = NowNs();
  inner_->DecideVerdictBatch(sa, sbs, count, sq, out);
  const uint64_t mean_ns = static_cast<uint64_t>(NowNs() - start) / count;
  for (size_t i = 0; i < count; ++i) RecordOutcome(out[i], mean_ns);
}

std::unique_ptr<DominanceCriterion> MakeInstrumentedCriterion(
    CriterionKind kind) {
  return std::make_unique<InstrumentedCriterion>(MakeCriterion(kind));
}

}  // namespace hyperdom

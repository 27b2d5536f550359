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

#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
std::string VerdictCounterName(std::string_view criterion,
                               std::string_view verdict) {
  std::string name(obs::kCriterionVerdicts.name);
  name.append("{criterion=\"").append(criterion);
  name.append("\",verdict=\"").append(verdict).append("\"}");
  return name;
}
#endif

}  // namespace

struct InstrumentedCriterion::Instruments {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  obs::Counter* dominates = nullptr;
  obs::Counter* not_dominates = nullptr;
  obs::Counter* uncertain = nullptr;
  obs::Histogram* latency = nullptr;
#endif
};

InstrumentedCriterion::InstrumentedCriterion(
    std::unique_ptr<DominanceCriterion> inner)
    : inner_(std::move(inner)), instruments_(new Instruments()) {
  assert(inner_ != nullptr);
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  // Handles are resolved per instance, not via the macros' function-local
  // statics: the label value (the criterion's name) differs per instance.
  auto& registry = obs::MetricsRegistry::Instance();
  const std::string_view n = inner_->name();
  instruments_->dominates = registry.GetCounter(
      VerdictCounterName(n, "dominates"), obs::kCriterionVerdicts.help);
  instruments_->not_dominates = registry.GetCounter(
      VerdictCounterName(n, "not_dominates"), obs::kCriterionVerdicts.help);
  instruments_->uncertain = registry.GetCounter(
      VerdictCounterName(n, "uncertain"), obs::kCriterionVerdicts.help);
  instruments_->latency =
      registry.GetHistogram(obs::kCriterionDecideDuration, "criterion", n);
#endif
}

InstrumentedCriterion::~InstrumentedCriterion() = default;

void InstrumentedCriterion::RecordOutcome(Verdict v,
                                          uint64_t elapsed_ns) const {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  switch (v) {
    case Verdict::kDominates:
      instruments_->dominates->Add(1);
      break;
    case Verdict::kNotDominates:
      instruments_->not_dominates->Add(1);
      break;
    case Verdict::kUncertain:
      instruments_->uncertain->Add(1);
      break;
  }
  instruments_->latency->Record(elapsed_ns);
#else
  (void)v;
  (void)elapsed_ns;
#endif
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

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The dominance decision-criterion interface (paper Problem 1) plus a
// factory. A criterion decides Dom(Sa, Sb, Sq): does every point of Sa lie
// strictly closer to every point of Sq than every point of Sb does?
//
// Criteria are evaluated on three axes (paper Section 1):
//   * correct  — returns true  => dominance really holds (no false positives)
//   * sound    — returns false => dominance really fails (no false negatives)
//   * efficient — O(d) in the dimensionality
// Hyperbola is the only criterion satisfying all three (paper Table 1).

#ifndef HYPERDOM_DOMINANCE_CRITERION_H_
#define HYPERDOM_DOMINANCE_CRITERION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/hypersphere.h"

namespace hyperdom {

/// \brief Three-valued dominance verdict.
///
/// A plain bool criterion must commit to an answer even when the scene sits
/// so close to the decision boundary that double rounding could have flipped
/// it. Error-aware criteria instead return kUncertain in that regime, and
/// callers that prune on dominance must treat kUncertain conservatively
/// (i.e. never prune).
enum class Verdict {
  kDominates,     ///< dominance certified to hold
  kNotDominates,  ///< dominance certified to fail
  kUncertain,     ///< inside the numeric error band; do not trust either way
};

/// Display name: "Dominates", "NotDominates", "Uncertain".
std::string_view VerdictName(Verdict v);

/// \brief Abstract dominance decision criterion.
///
/// Implementations are stateless and thread-compatible: a single instance
/// may be shared by concurrent readers.
///
/// The virtual core operates on non-owning SphereView handles so that
/// spheres resolved from the columnar SphereStore are decided without
/// materializing Hypersphere copies; the Hypersphere overloads are thin
/// non-virtual adapters over the same kernels, so both entry points are
/// bit-identical by construction.
class DominanceCriterion {
 public:
  virtual ~DominanceCriterion() = default;

  /// Decides Dom(sa, sb, sq). The three spheres must share a dimensionality.
  virtual bool Dominates(SphereView sa, SphereView sb,
                         SphereView sq) const = 0;

  /// Adapter: decides on owning spheres by viewing them.
  bool Dominates(const Hypersphere& sa, const Hypersphere& sb,
                 const Hypersphere& sq) const {
    return Dominates(sa.view(), sb.view(), sq.view());
  }

  /// \brief Three-valued decision.
  ///
  /// The default folds Dominates() onto {kDominates, kNotDominates};
  /// error-aware criteria (CertifiedCriterion) override it and may return
  /// kUncertain when the scene lies inside their numeric error band.
  virtual Verdict DecideVerdict(SphereView sa, SphereView sb,
                                SphereView sq) const {
    return Dominates(sa, sb, sq) ? Verdict::kDominates
                                 : Verdict::kNotDominates;
  }

  /// Adapter: three-valued decision on owning spheres.
  Verdict DecideVerdict(const Hypersphere& sa, const Hypersphere& sb,
                        const Hypersphere& sq) const {
    return DecideVerdict(sa.view(), sb.view(), sq.view());
  }

  /// \brief Batched three-valued decision: out[i] = DecideVerdict(sa,
  /// sbs[i], sq) for i in [0, count).
  ///
  /// One (Sa, Sq) pair against a block of candidates — the shape of
  /// BestKnownList's final-Sk filter and eager eviction sweeps, and of
  /// leaf-scan filtering. The contract is strict element-wise equivalence:
  /// every out[i] must be bit-identical (same enumerator, same side
  /// effects) to the serial call, so batching is purely a scheduling
  /// change. The default is the serial loop; criteria with per-pair work
  /// that is invariant in Sb (Hyperbola's query-to-focus distance)
  /// override it to hoist that work out of the loop. CertifiedCriterion
  /// inherits the default and keeps its per-call escalation via virtual
  /// dispatch on DecideVerdict. InstrumentedCriterion overrides it to
  /// forward the whole block to the criterion it wraps, so instrumentation
  /// never replaces a batch kernel with the serial loop.
  virtual void DecideVerdictBatch(SphereView sa, const SphereView* sbs,
                                  size_t count, SphereView sq,
                                  Verdict* out) const {
    for (size_t i = 0; i < count; ++i) {
      out[i] = DecideVerdict(sa, sbs[i], sq);
    }
  }

  /// Short display name ("Hyperbola", "MinMax", ...).
  virtual std::string_view name() const = 0;

  /// True iff the criterion guarantees no false positives.
  virtual bool is_correct() const = 0;

  /// True iff the criterion guarantees no false negatives.
  virtual bool is_sound() const = 0;
};

/// The criteria studied in the paper (Table 1) plus the test oracle.
enum class CriterionKind {
  kMinMax,         ///< MaxDist/MinDist comparison [26, 15]; correct, not sound
  kMbr,            ///< adapted MBR criterion [14]; correct, not sound
  kGp,             ///< adapted GP criterion [22]; correct, not sound
  kTrigonometric,  ///< adapted trigonometric criterion [12]; sound, not correct
  kHyperbola,      ///< the paper's contribution; correct, sound, O(d)
  kNumericOracle,  ///< reference 2-plane minimizer; exact but not O(d)-cheap
  kCertified,      ///< error-bounded Hyperbola with escalation; three-valued
};

/// Instantiates a criterion. Never returns null.
std::unique_ptr<DominanceCriterion> MakeCriterion(CriterionKind kind);

/// Display name for a kind without instantiating it.
std::string_view CriterionKindName(CriterionKind kind);

/// The five paper criteria (excludes the oracle), in the paper's Table 1
/// order: MinMax, MBR, GP, Trigonometric, Hyperbola.
const std::vector<CriterionKind>& PaperCriteria();

}  // namespace hyperdom

#endif  // HYPERDOM_DOMINANCE_CRITERION_H_

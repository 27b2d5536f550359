// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The optimal rectangle dominance decision of Emrich et al., "Boosting
// spatial pruning: on optimal pruning of MBRs" (SIGMOD 2010) — reference
// [14] of the paper. The hypersphere MBR criterion (Section 2.2) bounds
// each sphere by its MBR and delegates to RectDominatesSpheres, which
// computes the boxes on the fly. The box type and RectDominates are that
// decision's reference form on materialized boxes, against which the
// sphere form is tested.

#ifndef HYPERDOM_GEOMETRY_MBR_H_
#define HYPERDOM_GEOMETRY_MBR_H_

#include <string>

#include "geometry/hypersphere.h"
#include "geometry/point.h"

namespace hyperdom {

/// \brief An axis-aligned box [lo[i], hi[i]] per dimension.
class Mbr {
 public:
  Mbr() = default;

  /// Constructs a box; requires lo[i] <= hi[i] for all i (asserted).
  Mbr(Point lo, Point hi);

  /// The tightest box around a hypersphere: [c - r, c + r] per dimension.
  static Mbr FromSphere(const Hypersphere& s);

  /// Same, from a non-owning sphere view (identical arithmetic).
  static Mbr FromSphere(SphereView s);

  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }
  size_t dim() const { return lo_.size(); }

  std::string ToString() const;

 private:
  Point lo_;
  Point hi_;
};

/// \brief Largest |a - t| over a in [lo, hi]: the one-dimensional MaxDist
/// component. Exposed for tests.
double MaxDistComponent(double lo, double hi, double t);

/// \brief Smallest |b - t| over b in [lo, hi]: the one-dimensional MinDist
/// component (0 when t is inside the interval). Exposed for tests.
double MinDistComponent(double lo, double hi, double t);

/// \brief Emrich et al.'s DDC_optimal: does box `a` dominate box `b` w.r.t.
/// query box `q`?
///
/// Decides `forall p in q: MaxDist(a, p) < MinDist(b, p)` exactly in O(d):
/// both squared distances are separable sums over dimensions, and the query
/// coordinates vary independently inside a box, so
///   max_{p in q} (MaxDist(a,p)^2 - MinDist(b,p)^2)
///     = sum_i max_{t in [q.lo_i, q.hi_i]} (maxd_i(t)^2 - mind_i(t)^2).
/// Each per-dimension term is piecewise quadratic with convex-or-linear
/// pieces, so its maximum is attained at the interval endpoints or one of at
/// most three breakpoints. Correct and sound for hyperrectangles.
bool RectDominates(const Mbr& a, const Mbr& b, const Mbr& q);

/// \brief DDC_optimal applied to the MBRs of three sphere views, without
/// materializing the boxes.
///
/// Computes each box bound `c[i] ∓ r` on the fly inside the per-dimension
/// loop — the arithmetic is exactly `RectDominates(Mbr::FromSphere(a),
/// Mbr::FromSphere(b), Mbr::FromSphere(q))` with zero allocation.
bool RectDominatesSpheres(SphereView a, SphereView b, SphereView q);

}  // namespace hyperdom

#endif  // HYPERDOM_GEOMETRY_MBR_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "geometry/mbr.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/str_util.h"

namespace hyperdom {

Mbr::Mbr(Point lo, Point hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.size() == hi_.size());
#ifndef NDEBUG
  for (size_t i = 0; i < lo_.size(); ++i) assert(lo_[i] <= hi_[i]);
#endif
}

Mbr Mbr::FromSphere(const Hypersphere& s) { return FromSphere(s.view()); }

Mbr Mbr::FromSphere(SphereView s) {
  Point lo(s.dim);
  Point hi(s.dim);
  for (size_t i = 0; i < s.dim; ++i) {
    lo[i] = s.center[i] - s.radius;
    hi[i] = s.center[i] + s.radius;
  }
  return Mbr(std::move(lo), std::move(hi));
}

std::string Mbr::ToString() const {
  return "Mbr(lo=" + hyperdom::ToString(lo_) +
         ", hi=" + hyperdom::ToString(hi_) + ")";
}

double MaxDistComponent(double lo, double hi, double t) {
  return std::max(std::abs(t - lo), std::abs(t - hi));
}

double MinDistComponent(double lo, double hi, double t) {
  if (t < lo) return lo - t;
  if (t > hi) return t - hi;
  return 0.0;
}

namespace {

// max over t in [qlo, qhi] of maxd_a(t)^2 - mind_b(t)^2, where maxd_a is the
// 1-d MaxDist component to [alo, ahi] and mind_b the 1-d MinDist component
// to [blo, bhi]. The function is piecewise quadratic with convex or linear
// pieces whose breakpoints are the midpoint of [alo, ahi] and the two ends
// of [blo, bhi], so the maximum is attained at a candidate point.
double MaxDimTerm(double alo, double ahi, double blo, double bhi, double qlo,
                  double qhi) {
  auto eval = [&](double t) {
    const double md = MaxDistComponent(alo, ahi, t);
    const double nd = MinDistComponent(blo, bhi, t);
    return md * md - nd * nd;
  };
  double best = std::max(eval(qlo), eval(qhi));
  const double breakpoints[3] = {0.5 * (alo + ahi), blo, bhi};
  for (double t : breakpoints) {
    if (t > qlo && t < qhi) best = std::max(best, eval(t));
  }
  return best;
}

}  // namespace

bool RectDominates(const Mbr& a, const Mbr& b, const Mbr& q) {
  assert(a.dim() == b.dim() && a.dim() == q.dim());
  double total = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    total += MaxDimTerm(a.lo()[i], a.hi()[i], b.lo()[i], b.hi()[i], q.lo()[i],
                        q.hi()[i]);
  }
  // Strict: ties (a point of `q` equidistant) mean no dominance.
  return total < 0.0;
}

bool RectDominatesSpheres(SphereView a, SphereView b, SphereView q) {
  assert(a.dim == b.dim && a.dim == q.dim);
  double total = 0.0;
  for (size_t i = 0; i < a.dim; ++i) {
    // The box bounds c[i] -/+ r, computed exactly as Mbr::FromSphere does.
    total += MaxDimTerm(a.center[i] - a.radius, a.center[i] + a.radius,
                        b.center[i] - b.radius, b.center[i] + b.radius,
                        q.center[i] - q.radius, q.center[i] + q.radius);
  }
  return total < 0.0;
}

}  // namespace hyperdom

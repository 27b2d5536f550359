// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Uniform sampling inside hyperspheres, for the property tests that check
// a geometric claim against random realizations (min_ball_test,
// sampling_test).

#ifndef HYPERDOM_GEOMETRY_SAMPLING_H_
#define HYPERDOM_GEOMETRY_SAMPLING_H_

#include "common/rng.h"
#include "geometry/hypersphere.h"

namespace hyperdom {

/// \brief A point drawn uniformly from the unit ball in `dim` dimensions:
/// Gaussian direction (rotationally symmetric) scaled by U^(1/dim) (the
/// radial CDF of the uniform ball).
Point SampleUnitBall(Rng* rng, size_t dim);

/// A point drawn uniformly from `ball`.
Point SampleInBall(Rng* rng, const Hypersphere& ball);

/// A point drawn uniformly from the boundary sphere of `ball`.
Point SampleOnSphere(Rng* rng, const Hypersphere& ball);

}  // namespace hyperdom

#endif  // HYPERDOM_GEOMETRY_SAMPLING_H_

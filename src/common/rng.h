// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Deterministic random number generation. Every experiment in the paper is
// reproduced from fixed seeds so that test and bench output is stable across
// runs and machines; the generator is a self-contained xoshiro256++ rather
// than std::mt19937 so that streams are identical across standard libraries.

#ifndef HYPERDOM_COMMON_RNG_H_
#define HYPERDOM_COMMON_RNG_H_

#include <cstdint>

namespace hyperdom {

/// SplitMix64 finalizer (Steele et al.): a pure 64-bit mix with good
/// avalanche. Seeds Rng, keys the fault-injection streams, hash-partitions
/// ids across shards and derives per-shard query ids.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// \brief Deterministic 64-bit PRNG (xoshiro256++) with distribution helpers.
///
/// Not thread-safe; create one instance per thread/stream. Distinct logical
/// streams (e.g. centers vs. radii of a generated dataset) should use
/// distinct seeds derived via Fork().
class Rng {
 public:
  /// Seeds the state from a single 64-bit value via SplitMix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformU64(uint64_t n);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// A child generator with an independent stream, derived from this
  /// generator's state and `stream_id`. The parent state is not advanced.
  Rng Fork(uint64_t stream_id) const;

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_COMMON_RNG_H_

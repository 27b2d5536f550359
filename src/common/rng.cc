// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace hyperdom {

namespace {

// SplitMix64's per-step increment (2^64 / golden ratio).
constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // The SplitMix64 sequence of `seed`: word i = SplitMix64(seed + i*gamma).
  for (auto& word : s_) {
    word = SplitMix64(seed);
    seed += kGamma;
  }
}

uint64_t Rng::NextU64() {
  // xoshiro256++ step.
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::UniformU64(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to keep log() finite.
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Fold all state words and the stream id into one seed, advancing by
  // the SplitMix64 increment per word; the seed is then mixed by Rng().
  uint64_t acc = 0x243F6A8885A308D3ULL ^ stream_id;
  for (const auto& word : s_) acc = (acc ^ word) + kGamma;
  return Rng(acc ^ (stream_id * 0x9E3779B97F4A7C15ULL));
}

}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "shard/partitioner.h"

#include <cassert>
#include <limits>

#include "common/rng.h"

namespace hyperdom {
namespace shard {

namespace {

// Squared center distance; relative order is all assignment needs.
double SqDistTo(const double* a, const double* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace

HashPartitioner::HashPartitioner(size_t shards) : shards_(shards) {
  assert(shards_ >= 1);
}

size_t HashPartitioner::Assign(const Hypersphere& sphere, uint64_t id) const {
  (void)sphere;
  // SplitMix64's avalanche spreads consecutive ids evenly across shards.
  return static_cast<size_t>(SplitMix64(id) % shards_);
}

Status KMeansPartitioner::Fit(const std::vector<Hypersphere>& data,
                              size_t shards, uint64_t seed, size_t iterations,
                              KMeansPartitioner* out) {
  if (shards < 1) {
    return Status::InvalidArgument("k-means needs at least one shard");
  }
  if (data.empty()) {
    return Status::InvalidArgument("k-means needs a non-empty dataset");
  }
  const size_t dim = data.front().dim();
  for (const auto& s : data) {
    if (s.dim() != dim) {
      return Status::InvalidArgument(
          "all spheres must share one dimensionality");
    }
  }

  // Seeded start: k distinct data centers where possible (duplicates are
  // harmless — coinciding centroids just leave some shards empty).
  Rng rng(seed);
  std::vector<double> centroids(shards * dim);
  std::vector<size_t> picked;
  picked.reserve(shards);
  for (size_t j = 0; j < shards; ++j) {
    size_t idx = static_cast<size_t>(rng.UniformU64(data.size()));
    for (size_t attempt = 0; attempt < 8; ++attempt) {
      bool taken = false;
      for (size_t p : picked) taken = taken || (p == idx);
      if (!taken) break;
      idx = static_cast<size_t>(rng.UniformU64(data.size()));
    }
    picked.push_back(idx);
    const double* c = data[idx].center().data();
    for (size_t d = 0; d < dim; ++d) centroids[j * dim + d] = c[d];
  }

  // Lloyd rounds, fully serial so the fit is deterministic in
  // (data, shards, seed, iterations). Empty clusters keep their centroid.
  std::vector<double> sums(shards * dim);
  std::vector<uint64_t> counts(shards);
  std::vector<size_t> assign(data.size());
  for (size_t round = 0; round < iterations; ++round) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), uint64_t{0});
    for (size_t i = 0; i < data.size(); ++i) {
      const double* c = data[i].center().data();
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < shards; ++j) {
        const double d = SqDistTo(c, &centroids[j * dim], dim);
        if (d < best_dist) {  // strict: ties go to the lowest index
          best_dist = d;
          best = j;
        }
      }
      assign[i] = best;
      ++counts[best];
      for (size_t d = 0; d < dim; ++d) sums[best * dim + d] += c[d];
    }
    for (size_t j = 0; j < shards; ++j) {
      if (counts[j] == 0) continue;
      for (size_t d = 0; d < dim; ++d) {
        centroids[j * dim + d] =
            sums[j * dim + d] / static_cast<double>(counts[j]);
      }
    }
  }

  out->dim_ = dim;
  out->centroids_ = std::move(centroids);
  return Status::OK();
}

size_t KMeansPartitioner::Assign(const Hypersphere& sphere,
                                 uint64_t id) const {
  (void)id;
  assert(sphere.dim() == dim_);
  const double* c = sphere.center().data();
  const size_t k = shards();
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < k; ++j) {
    const double d = SqDistTo(c, &centroids_[j * dim_], dim_);
    if (d < best_dist) {
      best_dist = d;
      best = j;
    }
  }
  return best;
}

}  // namespace shard
}  // namespace hyperdom

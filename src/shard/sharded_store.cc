// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "shard/sharded_store.h"

#include <string>
#include <utility>

#include "common/fault.h"
#include "obs/trace.h"
#include "shard/partitioner.h"

namespace hyperdom {
namespace shard {

std::string_view ShardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kHash:
      return "hash";
    case ShardPolicy::kKmeans:
      return "kmeans";
  }
  return "unknown";
}

bool ParseShardPolicy(std::string_view name, ShardPolicy* out) {
  if (name == "hash") {
    *out = ShardPolicy::kHash;
    return true;
  }
  if (name == "kmeans") {
    *out = ShardPolicy::kKmeans;
    return true;
  }
  return false;
}

Status ShardedStore::Partition(const std::vector<Hypersphere>& data,
                               const ShardingOptions& options,
                               ShardedStore* out) {
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  const size_t dim = data.empty() ? 0 : data.front().dim();
  for (const auto& s : data) {
    if (s.dim() != dim) {
      return Status::InvalidArgument(
          "all spheres must share one dimensionality");
    }
  }

  ShardedStore store;
  store.options_ = options;
  store.shards_.resize(options.shards);
  store.size_ = data.size();
  store.dim_ = dim;

  if (!data.empty()) {
    HashPartitioner hash(options.shards);
    KMeansPartitioner kmeans;
    const Partitioner* partitioner = &hash;
    if (options.policy == ShardPolicy::kKmeans) {
      HYPERDOM_RETURN_NOT_OK(KMeansPartitioner::Fit(
          data, options.shards, options.kmeans_seed, options.kmeans_iterations,
          &kmeans));
      partitioner = &kmeans;
    }
    // Dataset order is preserved within each shard, so with K=1 the single
    // shard is the dataset itself in its original order and its index is
    // byte-for-byte the unsharded build.
    for (size_t i = 0; i < data.size(); ++i) {
      const uint64_t id = static_cast<uint64_t>(i);
      const size_t j = partitioner->Assign(data[i], id);
      store.shards_[j].spheres.push_back(data[i]);
      store.shards_[j].ids.push_back(id);
    }
  }

  *out = std::move(store);
  return Status::OK();
}

Status ShardedStore::BuildShardIndex(size_t j) {
  Shard& s = shards_[j];
  s.ss.reset();
  if (s.spheres.empty()) return Status::OK();
  auto tree = std::make_unique<SsTree>(dim_);
  HYPERDOM_RETURN_NOT_OK(tree->BulkLoadStrWithIds(s.spheres, s.ids));
  s.ss = std::move(tree);
  return Status::OK();
}

void ShardedStore::PublishMetrics() {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  HYPERDOM_GAUGE_SET(obs::kShardCount, static_cast<double>(shards_.size()));
  auto& registry = obs::MetricsRegistry::Instance();
  query_counters_.clear();
  query_counters_.reserve(shards_.size());
  for (size_t j = 0; j < shards_.size(); ++j) {
    const std::string label = std::to_string(j);
    registry.GetGauge(obs::kShardSizeEntries, "shard", label)
        ->Set(static_cast<double>(shards_[j].size()));
    query_counters_.push_back(
        registry.GetCounter(obs::kShardQueries, "shard", label));
  }
#endif
}

Status ShardedStore::Build(const std::vector<Hypersphere>& data,
                           const ShardingOptions& options, ShardedStore* out) {
  ShardedStore store;
  HYPERDOM_RETURN_NOT_OK(Partition(data, options, &store));
  for (size_t j = 0; j < store.shards(); ++j) {
    HYPERDOM_SPAN(span, "shard/build");
    HYPERDOM_SPAN_ANNOTATE(span, "shard", static_cast<uint64_t>(j));
    HYPERDOM_FAULT_POINT("shard/build");
    HYPERDOM_RETURN_NOT_OK(store.BuildShardIndex(j));
  }
  store.PublishMetrics();
  *out = std::move(store);
  return Status::OK();
}

}  // namespace shard
}  // namespace hyperdom

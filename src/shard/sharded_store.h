// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The sharded store: one dataset partitioned into K shards, each owning
// its own columnar arena and SS-tree, bulk-loaded by the SS-tree's STR
// builder. The scatter-gather engines (shard/sharded_query.h) fan a
// query across the shards and merge the per-shard best-known lists into
// an answer bit-identical to a single unsharded index over the same data
// (the merge contract; see BestKnownList::MergeFrom).
//
// Partition layout is deterministic in (data, options) — see
// shard/partitioner.h — and entries keep their GLOBAL ids (positions in
// the source vector), so answers from any shard line up with answers from
// an unsharded index over the same vector.

#ifndef HYPERDOM_SHARD_SHARDED_STORE_H_
#define HYPERDOM_SHARD_SHARDED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/ss_tree.h"
#include "obs/metrics.h"

namespace hyperdom {
namespace shard {

/// Which partitioning policy assigns entries to shards.
enum class ShardPolicy {
  kHash,    ///< SplitMix64 on the global id, modulo K
  kKmeans,  ///< nearest of K seeded-Lloyd centroids over sphere centers
};

/// "hash" / "kmeans".
std::string_view ShardPolicyName(ShardPolicy policy);

/// Parses "hash"/"kmeans"; false on anything else.
bool ParseShardPolicy(std::string_view name, ShardPolicy* out);

/// Options for ShardedStore::Build.
struct ShardingOptions {
  /// Number of shards (>= 1).
  size_t shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  /// Seed and Lloyd rounds for the k-means policy; ignored under hash.
  uint64_t kmeans_seed = 42;
  size_t kmeans_iterations = 8;
};

/// \brief One shard: the slice of the dataset it owns (in global order,
/// with global ids) plus its SS-tree, the paper's index. The tree is set
/// once the store is built; a shard with an empty slice has none.
struct Shard {
  std::vector<Hypersphere> spheres;
  std::vector<uint64_t> ids;
  std::unique_ptr<SsTree> ss;

  size_t size() const { return spheres.size(); }
};

/// \brief K shards over one dataset.
///
/// Immutable once built. Thread-compatible: concurrent queries against a
/// built store are safe (per-shard trees are read-only).
class ShardedStore {
 public:
  ShardedStore() = default;
  ShardedStore(ShardedStore&&) = default;
  ShardedStore& operator=(ShardedStore&&) = default;

  /// Partitions `data` per `options` and builds every shard's index.
  /// Entries keep their global ids (positions in `data`). Replaces `*out`.
  /// With K=1 and the hash policy the single shard holds the dataset in
  /// its original order, so its tree is identical to an unsharded build.
  static Status Build(const std::vector<Hypersphere>& data,
                      const ShardingOptions& options, ShardedStore* out);

  size_t shards() const { return shards_.size(); }
  const Shard& shard(size_t j) const { return shards_[j]; }
  const ShardingOptions& options() const { return options_; }
  /// Total entries across shards.
  size_t size() const { return size_; }
  /// Data dimensionality (0 for an empty dataset).
  size_t dim() const { return dim_; }

  /// Bumps the per-shard query counter (hyperdom_shard_queries_total
  /// {shard="j"}); the pointers are cached at build time because the
  /// labels are runtime values the literal-only hot-path macros cannot
  /// register. No-op when observability is compiled out.
  void CountShardQuery(size_t j) const {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
    query_counters_[j]->Inc();
#else
    (void)j;
#endif
  }

 private:
  friend class ShardedSnapshotSet;

  /// Partitions `data` into shard slices without building indexes; shared
  /// by Build and the snapshot loader (which re-partitions to know what
  /// each generation file must contain).
  static Status Partition(const std::vector<Hypersphere>& data,
                          const ShardingOptions& options, ShardedStore* out);

  /// Builds shard `j`'s SS-tree from its slice.
  Status BuildShardIndex(size_t j);

  /// Registers/updates the shard gauges and caches the per-shard counter
  /// handles. Called once per (re)build.
  void PublishMetrics();

  ShardingOptions options_;
  std::vector<Shard> shards_;
  size_t size_ = 0;
  size_t dim_ = 0;
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  std::vector<obs::Counter*> query_counters_;
#endif
};

}  // namespace shard
}  // namespace hyperdom

#endif  // HYPERDOM_SHARD_SHARDED_STORE_H_

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Shard-aware snapshot persistence: one checksummed HDSP generation file
// per shard plus a SHARDS manifest naming the generation and the sharding
// options it was cut under.
//
// Layout in the snapshot directory:
//
//   shard-<j>.<seq>.hdsp   per-shard snapshot envelope (index/snapshot.h);
//                          empty shards write no file
//   SHARDS                 manifest: "hyperdom-shards-v1 <seq> <shards>
//                          <policy> <kmeans_seed> <kmeans_iterations>\n"
//
// Writes follow the rotation discipline of index/rotation.cc: all K
// generation files are written (each itself tmp+rename atomic) before the
// manifest swings via tmp+rename, so a crash at any point leaves either
// the previous complete generation or the new one — never a mix. The two
// newest generations are kept; older files are pruned.
//
// Loads re-partition the raw data (partitioning is deterministic in
// (data, options) — shard/partitioner.h), so each shard knows exactly
// which entries its generation file must contain. A shard whose file is
// missing, corrupt, or inconsistent with its slice falls back to an
// in-memory rebuild OF THAT SHARD ONLY; the other shards still load from
// disk. Per-shard outcomes are reported so tests and operators can see
// which shards fell back.

#ifndef HYPERDOM_SHARD_SHARD_SNAPSHOT_H_
#define HYPERDOM_SHARD_SHARD_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/snapshot.h"
#include "shard/sharded_store.h"

namespace hyperdom {
namespace shard {

/// \brief Persists and restores a ShardedStore, one SS-tree snapshot per
/// shard.
class ShardedSnapshotSet {
 public:
  explicit ShardedSnapshotSet(std::string dir);

  /// Writes one generation file per non-empty shard, then swings the
  /// manifest. On success reports the published sequence number through
  /// `published_seq` (when non-null) and prunes generations older than the
  /// previous one. On failure no manifest update happens and the new
  /// generation files are removed (no debris).
  Status Persist(const ShardedStore& store, uint64_t* published_seq);

  /// Restores a store over `data` from the newest manifest-named
  /// generation. `options` must match the manifest (shard count, policy,
  /// k-means parameters) — InvalidArgument otherwise, because a mismatched
  /// partition would scatter entries across the wrong generation files.
  /// NotFound when no manifest exists. Each shard that fails to load is
  /// rebuilt from its re-partitioned slice; `outcomes` (when non-null) is
  /// resized to K with each shard's kLoaded/kRebuilt.
  Status LoadLatest(const std::vector<Hypersphere>& data,
                    const ShardingOptions& options, ShardedStore* out,
                    std::vector<SnapshotLoadOutcome>* outcomes,
                    uint64_t* seq_out);

  /// The manifest-named sequence, 0 when absent/unreadable.
  uint64_t CurrentSeq() const;

  /// Path of shard `j`'s generation file under sequence `seq`.
  std::string ShardPath(size_t shard, uint64_t seq) const;

 private:
  std::string ManifestPath() const;
  /// Parses "shard-<j>.<seq>.hdsp"; false for any other name.
  bool ParseGeneration(const std::string& name, size_t* shard,
                       uint64_t* seq) const;
  void Prune(uint64_t newest) const;

  std::string dir_;
};

}  // namespace shard
}  // namespace hyperdom

#endif  // HYPERDOM_SHARD_SHARD_SNAPSHOT_H_

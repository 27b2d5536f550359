// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "shard/shard_snapshot.h"

#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {
namespace shard {

namespace {

constexpr char kManifestName[] = "SHARDS";
constexpr char kManifestMagic[] = "hyperdom-shards-v1";
/// Generations kept behind the newest, matching index/rotation.cc.
constexpr uint64_t kKeepGenerations = 2;

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    if (value > (~0ull - 9) / 10) return false;  // overflow
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

ShardedSnapshotSet::ShardedSnapshotSet(std::string dir)
    : dir_(std::move(dir)) {}

std::string ShardedSnapshotSet::ManifestPath() const {
  return dir_ + "/" + kManifestName;
}

std::string ShardedSnapshotSet::ShardPath(size_t shard, uint64_t seq) const {
  return dir_ + "/shard-" + std::to_string(shard) + "." + std::to_string(seq) +
         ".hdsp";
}

bool ShardedSnapshotSet::ParseGeneration(const std::string& name,
                                         size_t* shard, uint64_t* seq) const {
  const std::string_view prefix = "shard-";
  const std::string_view suffix = ".hdsp";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string middle = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  const size_t dot = middle.find('.');
  if (dot == std::string::npos) return false;
  uint64_t shard_value = 0;
  uint64_t seq_value = 0;
  if (!ParseU64(middle.substr(0, dot), &shard_value)) return false;
  if (!ParseU64(middle.substr(dot + 1), &seq_value)) return false;
  *shard = static_cast<size_t>(shard_value);
  *seq = seq_value;
  return true;
}

uint64_t ShardedSnapshotSet::CurrentSeq() const {
  Result<std::string> body = ReadFileToString(ManifestPath());
  if (!body.ok()) return 0;
  std::istringstream in(body.ValueOrDie());
  std::string magic;
  uint64_t seq = 0;
  if (!(in >> magic >> seq) || magic != kManifestMagic) return 0;
  return seq;
}

Status ShardedSnapshotSet::Persist(const ShardedStore& store,
                                   uint64_t* published_seq) {
  HYPERDOM_SPAN(span, "shard/persist");
  const uint64_t next = CurrentSeq() + 1;
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(next));

  // All K generation files land (each tmp+rename atomic on its own)
  // before the manifest swings; empty shards write nothing, which the
  // loader reproduces by re-partitioning the same data.
  std::vector<std::string> written;
  Status status = Status::OK();
  for (size_t j = 0; j < store.shards() && status.ok(); ++j) {
    if (store.shard(j).ss == nullptr) continue;
    const std::string path = ShardPath(j, next);
    status = SaveSnapshot(*store.shard(j).ss, path);
    if (status.ok()) written.push_back(path);
  }
  if (status.ok()) {
    status = HYPERDOM_FAULT_POINT_STATUS("snapshot/rotate");
  }
  if (status.ok()) {
    std::ostringstream manifest;
    manifest << kManifestMagic << ' ' << next << ' ' << store.shards() << ' '
             << ShardPolicyName(store.options().policy) << ' '
             << store.options().kmeans_seed << ' '
             << store.options().kmeans_iterations << '\n';
    const std::string tmp = ManifestPath() + ".tmp";
    status = WriteStringToFile(tmp, manifest.str());
    if (status.ok()) status = RenameFile(tmp, ManifestPath());
    if (!status.ok()) (void)RemoveFile(tmp);
  }
  if (!status.ok()) {
    // No manifest references the new generation; leave no debris.
    for (const std::string& path : written) (void)RemoveFile(path);
    HYPERDOM_SPAN_ANNOTATE(span, "result", "error");
    return status;
  }

  HYPERDOM_SPAN_ANNOTATE(span, "result", "ok");
  if (published_seq != nullptr) *published_seq = next;
  Prune(next);
  return Status::OK();
}

void ShardedSnapshotSet::Prune(uint64_t newest) const {
  Result<std::vector<std::string>> entries = ListDirectory(dir_);
  if (!entries.ok()) return;  // best-effort
  for (const std::string& name : entries.ValueOrDie()) {
    size_t shard = 0;
    uint64_t seq = 0;
    if (!ParseGeneration(name, &shard, &seq)) continue;
    if (seq + kKeepGenerations <= newest) {
      (void)RemoveFile(dir_ + "/" + name);
    }
  }
}

Status ShardedSnapshotSet::LoadLatest(
    const std::vector<Hypersphere>& data, const ShardingOptions& options,
    ShardedStore* out, std::vector<SnapshotLoadOutcome>* outcomes,
    uint64_t* seq_out) {
  Result<std::string> body = ReadFileToString(ManifestPath());
  if (!body.ok()) {
    return Status::NotFound("no sharded snapshot manifest in '" + dir_ + "'");
  }
  std::istringstream in(body.ValueOrDie());
  std::string magic;
  std::string policy_name;
  uint64_t seq = 0;
  uint64_t shards = 0;
  uint64_t kmeans_seed = 0;
  uint64_t kmeans_iterations = 0;
  if (!(in >> magic >> seq >> shards >> policy_name >> kmeans_seed >>
        kmeans_iterations) ||
      magic != kManifestMagic || seq == 0) {
    return Status::Corruption("malformed sharded snapshot manifest '" +
                              ManifestPath() + "'");
  }
  ShardPolicy policy = ShardPolicy::kHash;
  if (!ParseShardPolicy(policy_name, &policy)) {
    return Status::Corruption("unknown shard policy '" + policy_name +
                              "' in manifest");
  }
  // The generation files hold exactly the slices the manifest's options
  // produced; loading them under a different partition would misplace
  // entries, so a mismatch is the caller's error, not a fallback case.
  if (shards != options.shards || policy != options.policy ||
      (policy == ShardPolicy::kKmeans &&
       (kmeans_seed != options.kmeans_seed ||
        kmeans_iterations != options.kmeans_iterations))) {
    return Status::InvalidArgument(
        "sharding options do not match the snapshot manifest");
  }

  HYPERDOM_SPAN(span, "shard/load_latest");
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(seq));
  ShardedStore store;
  HYPERDOM_RETURN_NOT_OK(ShardedStore::Partition(data, options, &store));
  if (outcomes != nullptr) {
    outcomes->assign(store.shards(), SnapshotLoadOutcome::kLoaded);
  }
  for (size_t j = 0; j < store.shards(); ++j) {
    Shard& s = store.shards_[j];
    if (s.spheres.empty()) continue;  // nothing persisted, nothing to load
    SsTree tree(store.dim());
    const Status load = LoadSnapshot(ShardPath(j, seq), &tree);
    if (load.ok() && tree.size() == s.spheres.size() &&
        tree.dim() == store.dim()) {
      s.ss = std::make_unique<SsTree>(std::move(tree));
      continue;
    }
    // Per-shard fallback: only this shard pays the rebuild; its siblings
    // keep loading from disk.
    HYPERDOM_COUNTER_INC(obs::kSnapshotRebuildFallback);
    HYPERDOM_RETURN_NOT_OK(store.BuildShardIndex(j));
    if (outcomes != nullptr) (*outcomes)[j] = SnapshotLoadOutcome::kRebuilt;
  }
  store.PublishMetrics();
  if (seq_out != nullptr) *seq_out = seq;
  *out = std::move(store);
  return Status::OK();
}

}  // namespace shard
}  // namespace hyperdom

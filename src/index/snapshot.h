// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Crash-safe, checksummed index snapshots. A snapshot wraps the SS-tree's
// binary serialization (SsTree::Serialize) in a small envelope —
//
//   magic "HDSP" | u32 version | u32 kind | u64 payload_size |
//   u32 payload_crc32 | payload bytes
//
// — so that a restart can detect truncation and bit rot before trusting
// the tree structure, and fall back to an O(n log n) rebuild from the raw
// data instead of serving queries off a corrupt index. Saves are atomic at
// the filesystem level: the envelope is written to `<path>.tmp` and
// renamed into place, so a crash mid-write leaves either the previous
// snapshot or none, never a half-written one.
//
// Like the underlying tree format, the envelope is host-endian — a
// same-machine cache, not an interchange format. The SS-tree is the only
// index that is persisted; the kind field still names it, and the retired
// kind 2 (the VP-tree's payload) is refused with kNotSupported.

#ifndef HYPERDOM_INDEX_SNAPSHOT_H_
#define HYPERDOM_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"

namespace hyperdom {

class SsTree;

/// Which index structure a snapshot holds. Kind 2 (the VP-tree) is
/// retired: reading it is kNotSupported, any other unknown kind
/// kCorruption.
enum class SnapshotKind : uint32_t {
  kSsTree = 1,
};

/// "ss-tree".
std::string_view SnapshotKindName(SnapshotKind kind);

/// Envelope facts reported by VerifySnapshot().
struct SnapshotInfo {
  SnapshotKind kind = SnapshotKind::kSsTree;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  /// True iff the payload bytes on disk match the stored checksum.
  bool crc_ok = false;
};

/// \name Save / load. The only file path for an index.
/// LoadSnapshot verifies the checksum before deserializing and reports
/// kCorruption on any mismatch, truncation, or structural violation, and
/// kNotSupported on any envelope or tree format version but the current
/// one, or on a retired kind (retired formats are never migrated); a
/// failed load leaves `*out` untouched.
/// @{
Status SaveSnapshot(const SsTree& tree, const std::string& path);
Status LoadSnapshot(const std::string& path, SsTree* out);
/// @}

/// Reads and checks the envelope (magic, version, kind, size, checksum)
/// without deserializing the payload into a tree.
Result<SnapshotInfo> VerifySnapshot(const std::string& path);

/// How LoadSnapshotOrRebuild obtained its tree.
enum class SnapshotLoadOutcome {
  kLoaded,   ///< the snapshot verified and deserialized cleanly
  kRebuilt,  ///< snapshot missing, corrupt or retired; rebuilt from `data`
};

/// Load with rebuild fallback: tries LoadSnapshot(); on any failure
/// rebuilds the SS-tree from `data` by STR bulk load and reports kRebuilt.
/// Fails only when the rebuild itself fails (e.g. empty `data` after a
/// corrupt snapshot still yields an empty, valid tree). The load error
/// that triggered a rebuild is returned through `load_error` when
/// non-null.
Status LoadSnapshotOrRebuild(const std::string& path,
                             const std::vector<Hypersphere>& data,
                             SsTree* out, SnapshotLoadOutcome* outcome,
                             Status* load_error = nullptr);

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_SNAPSHOT_H_

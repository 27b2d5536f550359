// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Online mutability over the SS-tree: live inserts and deletes while
// queries run, with epoch-protected snapshot isolation.
//
// Design (single writer, many readers):
//
//   * The index state is an immutable TreeVersion published through one
//     atomic pointer. A version is {base, delta, watermarks}: `base` is a
//     bulk-loaded SsTree plus a per-slot `deleted_at` array; `delta` is an
//     append-only log of inserted rows in pre-reserved SphereStore slabs
//     (rows never move once written) with its own `deleted_at`.
//   * Every mutation appends or tombstones, then publishes a fresh
//     TreeVersion with version V+1. Tombstones are version-valued: a row
//     with deleted_at = D is visible to a reader pinned at version V iff
//     D == 0 || D > V — so each published version is a consistent prefix
//     of the mutation log, and a pinned reader's answer set never changes
//     underneath it.
//   * Readers pin via MutableSsTree::Pin(): an epoch guard
//     (storage/epoch.h) plus the head TreeVersion pointer. Superseded
//     versions are retired to the epoch manager and freed only after
//     every reader that could hold them has unpinned.
//   * Memory safety of concurrent append: delta slabs are fixed-capacity
//     (SphereStore::Reserve at construction), so the writer's appends
//     never move rows a reader can see; readers only touch rows below
//     their version's `delta_rows` watermark, all written before that
//     version was release-published.
//   * Compaction rewrites the live rows into a freshly bulk-loaded base
//     (preserving external ids) and an empty delta, then publishes it
//     like any other version; readers pinned on the old version keep
//     traversing it until the grace period ends. While a compaction is
//     building, mutations are rejected with kConflict — the store's data
//     is immutable for the duration, so the build needs no locks.
//
// Failure semantics: the `store/insert` and `store/compact` fault sites
// fire before any state is mutated or published, so an injected failure
// always leaves the previous version intact and serving.

#ifndef HYPERDOM_INDEX_MUTABLE_SS_TREE_H_
#define HYPERDOM_INDEX_MUTABLE_SS_TREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"
#include "index/overlay.h"
#include "index/ss_tree.h"
#include "storage/epoch.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// Tuning for MutableSsTree.
struct MutableSsTreeOptions {
  /// Options for the bulk-loaded base trees (Build and compaction).
  SsTreeOptions tree;
  /// Auto-compaction triggers once the delta holds at least this many
  /// rows...
  size_t compact_min_delta = 4096;
  /// ...or once tombstones exceed this fraction of live rows (whichever
  /// comes first).
  double compact_tombstone_ratio = 0.25;
  /// Master switch for auto-compaction after mutations. Explicit
  /// Compact() calls always work.
  bool auto_compact = true;
  /// Test hook: runs inside Compact() after the live rows are gathered
  /// and before the new version is built — the window in which
  /// concurrent mutations observe kConflict deterministically.
  std::function<void()> compaction_hook;
};

/// \brief An SS-tree supporting live inserts/deletes concurrent with
/// queries. Writer calls (Insert/Remove/Compact/Build/Freeze/Thaw) are
/// serialized internally and safe from any thread; readers use Pin().
class MutableSsTree {
 public:
  explicit MutableSsTree(size_t dim, MutableSsTreeOptions options = {});
  ~MutableSsTree();

  MutableSsTree(const MutableSsTree&) = delete;
  MutableSsTree& operator=(const MutableSsTree&) = delete;

  /// \brief A pinned, immutable view of the index at one version.
  /// Holds an epoch guard: the viewed memory stays alive until the view
  /// is destroyed, and the answer set at this version never changes.
  /// Implements SearchOverlay so the query drivers can skip tombstoned
  /// base slots and score delta rows.
  class ReadView : public SearchOverlay {
   public:
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;

    /// The mutation-log version this view is pinned at.
    uint64_t version() const;
    /// The immutable base tree (traverse with the overlay).
    const SsTree& tree() const;
    /// Visible rows at this version (base + delta, minus tombstones).
    size_t live_size() const;
    /// Rows in the delta log covered by this view.
    size_t delta_rows() const;

    /// Materializes every visible row (compaction, persistence, and the
    /// torture test's serial reference all consume this).
    void CollectLive(std::vector<Hypersphere>* spheres,
                     std::vector<uint64_t>* ids) const;

    // SearchOverlay:
    bool VisibleBase(uint32_t slot) const override;
    /// Walks the delta slabs directly (one visibility load per row, no
    /// per-row slab Locate) and hands the visible rows to `fn` as a single
    /// block, in row order.
    void ForEachExtraBlock(const std::function<void(const EntryView*, size_t)>&
                               fn) const override;

   private:
    friend class MutableSsTree;
    explicit ReadView(const MutableSsTree* tree);

    EpochManager::Guard guard_;  // pinned before head_ is loaded
    const void* v_;              // the pinned TreeVersion
  };

  /// Pins the current version. Cheap (one CAS + one load); hold for the
  /// duration of a query, not longer — pinned views delay reclamation.
  ReadView Pin() const;

  /// \brief Replaces the contents with a bulk-loaded base (empty delta).
  /// `ids[i]` tags `spheres[i]`; ids must be unique. kConflict while
  /// frozen or compacting.
  Status Build(const std::vector<Hypersphere>& spheres,
               const std::vector<uint64_t>& ids);

  /// \brief Rebuilds from an immutable SsTree's rows (snapshot restore
  /// path), preserving the entry ids stored in the tree.
  Status BuildFromTree(const SsTree& tree);

  /// \brief Inserts one row under `id`. InvalidArgument on dimension
  /// mismatch or a duplicate live id; kConflict while frozen or
  /// compacting. On success the row is visible to every view pinned
  /// afterwards, and to none pinned before.
  Status Insert(const Hypersphere& sphere, uint64_t id);

  /// \brief Deletes the live row under `id`. NotFound if absent;
  /// kConflict while frozen or compacting. Publishes a version-valued
  /// tombstone — already-pinned views still see the row.
  Status Remove(uint64_t id);

  /// \brief Rewrites the live rows into a fresh bulk-loaded base and an
  /// empty delta. Concurrent mutations are rejected with kConflict while
  /// the rewrite runs; concurrent queries are unaffected. kConflict if
  /// frozen or if another compaction is already running.
  Status Compact();

  /// Enters drain mode: every subsequent mutation returns kConflict
  /// until Thaw(). Queries keep working. Idempotent.
  void Freeze();
  void Thaw();
  bool frozen() const;

  size_t dim() const { return dim_; }
  /// Current published mutation-log version (0 for a fresh empty tree).
  uint64_t version() const;
  /// Visible rows at the current version.
  size_t live_size() const;
  /// Tombstoned rows awaiting compaction at the current version.
  size_t tombstones() const;
  /// Rows in the current delta log (live + tombstoned).
  size_t delta_rows() const;

  const MutableSsTreeOptions& options() const { return options_; }

 private:
  struct DeltaSlab;
  struct DeltaLog;
  struct BaseState;
  struct TreeVersion;

  /// Writer-side location of a live id.
  struct Loc {
    bool in_delta = false;
    uint64_t index = 0;  // base slot or delta row
  };

  Status InsertLocked(const Hypersphere& sphere, uint64_t id);
  Status RemoveLocked(uint64_t id);
  /// The build phase of Compact(); runs with compacting_ set and the
  /// writer mutex released.
  Status CompactBuild();
  /// Swaps in `next` as the published head and retires the old version.
  /// Caller holds writer_mu_.
  void PublishLocked(const TreeVersion* next);
  /// Refreshes the hyperdom_store_* gauges from `v`.
  static void UpdateGauges(const TreeVersion& v);
  /// Whether the current version has outgrown the compaction thresholds.
  bool ShouldAutoCompact() const;

  const size_t dim_;
  const MutableSsTreeOptions options_;

  /// The published version; readers load it under an epoch guard,
  /// writers exchange it under writer_mu_ (seq_cst, per the protocol in
  /// storage/epoch.h).
  std::atomic<const TreeVersion*> head_;

  mutable std::mutex writer_mu_;
  /// id -> location of the live row (writer-only bookkeeping).
  std::unordered_map<uint64_t, Loc> locs_;
  /// Set while a compaction build runs (guarded by writer_mu_; the build
  /// itself runs with the mutex released).
  bool compacting_ = false;
  std::atomic<bool> frozen_{false};
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_MUTABLE_SS_TREE_H_

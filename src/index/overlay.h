// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// A visibility overlay threaded through the SS-tree queries by the
// live-mutability layer (index/mutable_ss_tree.h). The base tree a query
// traverses is immutable; mutations live beside it as tombstones over the
// base slots plus an append-only delta of freshly inserted rows. The
// overlay tells a traversal which base slots to skip and hands it the
// extra rows to score, so the one kNN traversal (query/knn_traversal.h)
// serves both the static and the mutable index.
//
// Correctness note for pruning: deletions leave the base tree's bounding
// spheres untouched, so every node bound stays a covering superset of the
// visible rows beneath it — MinDist against a stale bound can only
// under-estimate, never over-estimate, which means no visible answer is
// ever pruned. Extra (delta) rows are outside the tree entirely and are
// scored exhaustively before the traversal starts.

#ifndef HYPERDOM_INDEX_OVERLAY_H_
#define HYPERDOM_INDEX_OVERLAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "storage/sphere_store.h"

namespace hyperdom {

/// \brief Query-time view adjustments over an immutable base tree.
/// Implemented by MutableSsTree::ReadView. The SS-tree's kNN node adapter
/// (query/knn.cc) and the range query (query/range.cc) accept an optional
/// overlay and fall back to "everything visible, nothing extra" when it
/// is null.
class SearchOverlay {
 public:
  virtual ~SearchOverlay() = default;

  /// Whether the base-tree row in `slot` is visible at this view's
  /// version (false once a delete of that row has been published at or
  /// before the pinned version).
  virtual bool VisibleBase(uint32_t slot) const = 0;

  /// Invokes `fn` for every extra (delta-inserted, still visible) row.
  /// Views handed out stay valid while the overlay is alive, like
  /// SphereStore views.
  virtual void ForEachExtra(
      const std::function<void(const EntryView&)>& fn) const = 0;

  /// Block form of ForEachExtra for batched scoring: hands the same rows,
  /// in the same order, as one or more contiguous EntryView blocks (the
  /// pointer is valid only for the duration of the callback). The default
  /// gathers everything through ForEachExtra and emits a single block;
  /// implementations with contiguous internal storage (MutableSsTree's
  /// delta slabs) override it to skip the per-row indirection.
  virtual void ForEachExtraBlock(
      const std::function<void(const EntryView*, size_t)>& fn) const {
    std::vector<EntryView> rows;
    ForEachExtra([&rows](const EntryView& e) { rows.push_back(e); });
    fn(rows.data(), rows.size());
  }
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_OVERLAY_H_

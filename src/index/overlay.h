// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// A visibility overlay threaded through the SS-tree queries by the
// live-mutability layer (index/mutable_ss_tree.h). The base tree a query
// traverses is immutable; mutations live beside it as tombstones over the
// base slots plus an append-only delta of freshly inserted rows. The
// overlay tells a traversal which base slots to skip and hands it the
// extra rows to score, so the one traversal (query/knn_traversal.h) serves
// kNN and range over both the static and the mutable index.
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

#include "storage/sphere_store.h"

namespace hyperdom {

/// \brief Query-time view adjustments over an immutable base tree.
/// Implemented by MutableSsTree::ReadView. The SS-tree node adapter that
/// kNN and range share (knn_internal::TraverseSsTree) accepts an optional
/// overlay and falls back to "everything visible, nothing extra" when it
/// is null.
class SearchOverlay {
 public:
  virtual ~SearchOverlay() = default;

  /// Whether the base-tree row in `slot` is visible at this view's
  /// version (false once a delete of that row has been published at or
  /// before the pinned version).
  virtual bool VisibleBase(uint32_t slot) const = 0;

  /// Hands every extra (delta-inserted, still visible) row to `fn`, in
  /// insertion order, as one or more contiguous EntryView blocks. The block
  /// pointer is valid only for the duration of the callback; the sphere
  /// views in it stay valid while the overlay is alive, like SphereStore
  /// views.
  virtual void ForEachExtraBlock(
      const std::function<void(const EntryView*, size_t)>& fn) const = 0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_OVERLAY_H_

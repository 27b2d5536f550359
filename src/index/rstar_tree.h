// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// An R*-tree (Beckmann et al., SIGMOD 1990) over hypersphere data — the
// rectangle-based counterpart the SS-tree line of work ([31], [20], [18])
// measures itself against, and the natural home of the paper's MBR decision
// criterion [14]. Each data sphere is stored under its minimum bounding
// box; node regions are boxes.
//
// Implementation summary (faithful to the classic algorithm, with one
// simplification noted below):
//   * ChooseSubtree: minimum overlap enlargement when the children are
//     leaves (ties: minimum volume enlargement, then minimum volume);
//     minimum volume enlargement otherwise.
//   * Split: R*-tree topological split — the axis minimizing the summed
//     margins over all distributions, then the distribution minimizing
//     overlap (ties: minimum total volume), with a min-fill constraint.
//   * Forced reinsert: on the first leaf overflow per insertion, the 30%
//     of entries farthest from the node's box center are removed and
//     re-inserted (which is what gives the R*-tree its retrofitted balance).
//     Simplification: reinsertion is applied at the leaf level only;
//     internal overflows always split. This keeps the structure exact and
//     costs only a little balance quality.
//
// Append-only, like SsTree: the experiments bulk load then query.

#ifndef HYPERDOM_INDEX_RSTAR_TREE_H_
#define HYPERDOM_INDEX_RSTAR_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geometry/mbr.h"
#include "index/entry.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// R*-tree leaf entries are columnar-store handles.
using RStarTreeEntry = StoredEntry;

/// Tuning options for RStarTree.
struct RStarTreeOptions {
  /// Maximum entries (leaf) or children (internal) per node. Must be >= 4.
  size_t max_entries = 24;
  /// Minimum fill ratio enforced by splits, in (0, 0.5].
  double min_fill_ratio = 0.4;
  /// Fraction of a leaf re-inserted on its first overflow, in [0, 0.5].
  /// 0 disables forced reinsertion.
  double reinsert_fraction = 0.3;
};

/// \brief R*-tree node; public for traversal by searchers and tests.
class RStarTreeNode {
 public:
  explicit RStarTreeNode(bool is_leaf) : is_leaf_(is_leaf) {}

  bool is_leaf() const { return is_leaf_; }
  /// The node's bounding box (covers every data sphere beneath it).
  const Mbr& mbr() const { return mbr_; }
  /// Leaf payload: store handles, resolved via RStarTree::store(). Valid
  /// only when is_leaf().
  const std::vector<RStarTreeEntry>& entries() const { return entries_; }
  /// Children; valid only when !is_leaf().
  const std::vector<std::unique_ptr<RStarTreeNode>>& children() const {
    return children_;
  }

 private:
  friend class RStarTree;

  bool is_leaf_;
  Mbr mbr_;
  std::vector<RStarTreeEntry> entries_;
  std::vector<std::unique_ptr<RStarTreeNode>> children_;
};

/// \brief The R*-tree index.
class RStarTree {
 public:
  explicit RStarTree(size_t dim, RStarTreeOptions options = {});

  /// Inserts one hypersphere. Fails on dimension mismatch or bad options.
  Status Insert(const Hypersphere& sphere, uint64_t id);

  /// Bulk-loads by repeated insertion; ids are positions in `spheres`.
  Status BulkLoad(const std::vector<Hypersphere>& spheres);

  /// Root node; null while the tree is empty.
  const RStarTreeNode* root() const { return root_.get(); }

  /// The columnar sphere storage backing every leaf entry.
  const SphereStore& store() const { return *store_; }

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  const RStarTreeOptions& options() const { return options_; }

  /// Height of the tree (0 when empty, 1 for a single leaf).
  size_t Height() const;

  /// \brief Validates structural invariants, for tests: every entry box is
  /// covered by each ancestor box, occupancy limits hold, leaves share one
  /// depth, and the total entry count matches size().
  Status CheckInvariants() const;

 private:
  Status ValidateOptions() const;
  /// Core insertion of an already-stored entry; `allow_reinsert` is false
  /// while draining forced-reinsert orphans (whose spheres already live in
  /// the store and must not be re-added).
  void InsertEntry(const RStarTreeEntry& entry, bool allow_reinsert);
  /// Chooses the child of `node` for a new box (R*-tree rules).
  RStarTreeNode* ChooseSubtree(RStarTreeNode* node, const Mbr& box) const;
  /// Recomputes `node`'s box from its payload.
  void RefreshMbr(RStarTreeNode* node) const;
  /// Splits an overflowing node; returns the new right sibling.
  std::unique_ptr<RStarTreeNode> SplitNode(RStarTreeNode* node) const;
  /// Handles an overflowing leaf at the end of `path` (reinsert or split),
  /// propagating internal splits upward. Appends reinsert orphans to
  /// `orphans`.
  void HandleOverflow(std::vector<RStarTreeNode*>* path, bool allow_reinsert,
                      std::vector<RStarTreeEntry>* orphans);

  size_t dim_;
  RStarTreeOptions options_;
  /// Columnar coordinate arena for every data sphere in the tree.
  std::shared_ptr<SphereStore> store_;
  std::unique_ptr<RStarTreeNode> root_;
  size_t size_ = 0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_RSTAR_TREE_H_

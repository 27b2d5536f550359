// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// A vantage-point tree (Yianilos / Chiueh [10] — the paper cites VP-trees
// among the hypersphere-friendly metric indexes) adapted to hypersphere
// data: centers are indexed in the metric-tree fashion, and every subtree
// additionally records the largest data radius underneath it so that node
// distance bounds stay valid for spheres, not just points.
//
// Build: static and recursive. Each node keeps one vantage entry; the
// remaining entries are split at the median of their center distance to
// the vantage point into an inside and an outside subtree. Each child link
// stores the exact [min, max] band of center distances in that subtree, so
//   MinDist(subtree, Sq) >= max(0, max(d(vp,cq) - hi, lo - d(vp,cq)))
//                           - max_radius(subtree) - rq,
// by the triangle inequality. The tree is immutable after Build().

#ifndef HYPERDOM_INDEX_VP_TREE_H_
#define HYPERDOM_INDEX_VP_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "index/entry.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// VP-tree payloads are columnar-store handles.
using VpTreeEntry = StoredEntry;

/// Tuning options for VpTree.
struct VpTreeOptions {
  /// Subtrees at or below this size become flat leaf buckets.
  size_t leaf_size = 16;
};

/// \brief VP-tree node; public for traversal by searchers and tests.
class VpTreeNode {
 public:
  /// The vantage entry stored at this node (unset for leaf buckets);
  /// resolved via VpTree::store().
  const VpTreeEntry& vantage() const { return vantage_; }
  bool is_leaf() const { return is_leaf_; }
  /// Bucket payload: store handles; valid only when is_leaf().
  const std::vector<VpTreeEntry>& bucket() const { return bucket_; }

  const VpTreeNode* inside() const { return inside_.get(); }
  const VpTreeNode* outside() const { return outside_.get(); }

  /// Band of center distances to the vantage point in the inside/outside
  /// subtree: [lo, hi]. Valid only when the subtree exists.
  double inside_lo() const { return inside_lo_; }
  double inside_hi() const { return inside_hi_; }
  double outside_lo() const { return outside_lo_; }
  double outside_hi() const { return outside_hi_; }

  /// Largest data-sphere radius in this node's whole subtree (including
  /// the vantage/bucket entries).
  double max_radius() const { return max_radius_; }
  /// Number of data entries in this subtree.
  size_t subtree_size() const { return subtree_size_; }

 private:
  friend class VpTree;

  bool is_leaf_ = false;
  VpTreeEntry vantage_;
  std::vector<VpTreeEntry> bucket_;
  std::unique_ptr<VpTreeNode> inside_;
  std::unique_ptr<VpTreeNode> outside_;
  double inside_lo_ = 0.0, inside_hi_ = 0.0;
  double outside_lo_ = 0.0, outside_hi_ = 0.0;
  double max_radius_ = 0.0;
  size_t subtree_size_ = 0;
};

/// \brief The (static) VP-tree index.
class VpTree {
 public:
  explicit VpTree(VpTreeOptions options = {});

  /// Builds the tree over `spheres`; ids are positions in the vector.
  /// Replaces any previous contents. Fails on inconsistent dimensions.
  Status Build(const std::vector<Hypersphere>& spheres);

  const VpTreeNode* root() const { return root_.get(); }

  /// The columnar sphere storage backing every entry; rebuilt by Build().
  const SphereStore& store() const { return *store_; }

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  const VpTreeOptions& options() const { return options_; }

  /// \brief Validates structural invariants for tests: distance bands are
  /// respected by every subtree entry, max_radius covers all radii, and
  /// subtree counts are consistent.
  Status CheckInvariants() const;

 private:
  Status BuildRecursive(std::vector<VpTreeEntry> items,
                        std::unique_ptr<VpTreeNode>* out);

  VpTreeOptions options_;
  /// Columnar coordinate arena for every entry in the tree.
  std::shared_ptr<SphereStore> store_;
  std::unique_ptr<VpTreeNode> root_;
  size_t size_ = 0;
  size_t dim_ = 0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_VP_TREE_H_

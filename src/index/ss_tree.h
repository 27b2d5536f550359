// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// An SS-tree (White & Jain, ICDE 1996 — reference [31] of the paper): a
// height-balanced index whose node regions are hyperspheres rather than
// hyperrectangles, which the paper's Section 7.2 uses to index hypersphere
// datasets for kNN queries.
//
// Implementation summary:
//   * Data spheres live in a tree-owned columnar SphereStore; leaf nodes
//     hold lightweight StoredEntry handles (slot + caller-supplied id),
//     internal nodes hold child nodes. Traversals resolve handles to
//     SphereView spans over the store's contiguous arena.
//   * Memory follows the traversal. A bulk-loaded tree (BulkLoadStr)
//     appends each leaf's rows to the store as the leaf is made, so a
//     leaf's rows are contiguous and the leaves, read left to right, hold
//     slots 0, 1, 2, … An insertion-built tree keeps its rows in insertion
//     order.
//   * Every node maintains the centroid of the data centers beneath it
//     (incrementally, via a coordinate sum and a count) and a bounding
//     sphere centred there whose radius covers all of its data spheres —
//     the SS-tree's defining property that yields compact regions in high
//     dimension. An internal node also keeps a packed copy of its
//     children's bounding spheres (centres at stride d, radii in a parallel
//     array), so a traversal bounds every child of a node with one batched
//     kernel call without touching the child nodes.
//   * Insertion descends to the child whose centroid is nearest the new
//     center (White & Jain's cheapest-centroid rule). An overflowing node
//     is split by White & Jain's variance cut, subject to the options'
//     minimum fill ratio.
//   * Bulk loading follows White & Jain's VAMSplit: top down, by
//     largest-variance cuts into groups of near-equal size (BulkLoadStr).
//   * Beyond White & Jain: binary persistence. There is no in-place
//     delete; the mutable store (index/mutable_ss_tree.h) deletes by
//     tombstone and compacts by a bulk rebuild.

#ifndef HYPERDOM_INDEX_SS_TREE_H_
#define HYPERDOM_INDEX_SS_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"
#include "index/entry.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// SS-tree leaf entries are columnar-store handles.
using SsTreeEntry = StoredEntry;

/// Tuning options for SsTree.
struct SsTreeOptions {
  /// Maximum entries (leaf) or children (internal) per node. Must be >= 4.
  size_t max_entries = 24;
  /// Minimum fill ratio enforced by splits, in (0, 0.5].
  double min_fill_ratio = 0.4;
};

/// \brief SS-tree node. Public so that search strategies (query/knn.cc) and
/// tests can traverse the structure; mutation goes through SsTree.
class SsTreeNode {
 public:
  explicit SsTreeNode(bool is_leaf) : is_leaf_(is_leaf) {}

  bool is_leaf() const { return is_leaf_; }
  /// The node's bounding hypersphere (covers every data sphere beneath it).
  const Hypersphere& bounding_sphere() const { return bounding_; }
  /// Leaf payload: store handles, resolved via SsTree::store(). Valid only
  /// when is_leaf().
  const std::vector<SsTreeEntry>& entries() const { return entries_; }
  /// Children; valid only when !is_leaf().
  const std::vector<std::unique_ptr<SsTreeNode>>& children() const {
    return children_;
  }
  /// The children's bounding spheres, packed in child order: child i's
  /// centre is the d doubles at child_centers()[i * d], its radius
  /// child_radii()[i]. Bit-equal to the children's bounding_sphere(); empty
  /// for a leaf.
  const std::vector<double>& child_centers() const { return child_centers_; }
  const std::vector<double>& child_radii() const { return child_radii_; }
  /// Number of data entries in this subtree.
  size_t subtree_size() const { return count_; }

 private:
  friend class SsTree;

  bool is_leaf_;
  Hypersphere bounding_;
  std::vector<SsTreeEntry> entries_;
  std::vector<std::unique_ptr<SsTreeNode>> children_;
  /// Packed child bounds; written only by SsTree::RefreshBoundingSphere.
  std::vector<double> child_centers_;
  std::vector<double> child_radii_;
  /// Sum of data-sphere centers beneath this node (for the centroid).
  Point center_sum_;
  /// Number of data entries beneath this node.
  size_t count_ = 0;
};

/// \brief The SS-tree index.
class SsTree {
 public:
  /// Creates an empty tree for `dim`-dimensional data. `options` validated
  /// lazily on first insert.
  explicit SsTree(size_t dim, SsTreeOptions options = {});

  /// Inserts one hypersphere. Fails on dimension mismatch or bad options.
  /// A mid-insert failure (only reachable via injected faults today) can
  /// leave the tree with the partial update applied; it stays safe to
  /// read, but callers should rebuild before trusting CheckInvariants().
  Status Insert(const Hypersphere& sphere, uint64_t id);

  /// Bulk-loads by repeated insertion (the paper's experiments build the
  /// index once per dataset).
  Status BulkLoad(const std::vector<Hypersphere>& spheres);

  /// \brief Bulk-loads top down, after White & Jain's VAMSplit
  /// ("Similarity indexing: algorithms and performance", 1996). With
  /// capacity = 85% of max_entries, the root gets the least height h with
  /// capacity^h >= n, and a node of height h cuts its rows into
  /// ceil(rows / capacity^(h - 1)) children of near-equal size: binary
  /// cuts near the median, each on the centre coordinate of largest
  /// variance over at most 128 evenly strided rows. (VAMSplit fills whole
  /// subtrees and leaves the remainder to the last one; equal sizes keep
  /// every non-root node at 2 items or more.) All leaves are at one depth.
  /// Much faster than repeated insertion. Replaces any previous contents;
  /// ids are positions in `spheres`. Store rows are in leaf order, not
  /// input order: read the slot of an id from the leaves.
  ///
  /// The name is kept from the Sort-Tile-Recursive packing this loader
  /// replaced, because the repository benchmark calls it; so are the
  /// build's fault site `ss_tree/str_pack` and its `index/build` method
  /// label `str_pack`.
  Status BulkLoadStr(const std::vector<Hypersphere>& spheres);

  /// BulkLoadStr with caller-supplied ids (`ids[i]` tags `spheres[i]`;
  /// sizes must match). The shards, the mutable store's base and its
  /// compactions build through this to keep the external ids the rows
  /// were inserted under.
  Status BulkLoadStrWithIds(const std::vector<Hypersphere>& spheres,
                            const std::vector<uint64_t>& ids);

  /// Root node; null while the tree is empty.
  const SsTreeNode* root() const { return root_.get(); }

  /// The columnar sphere storage backing every leaf entry. Stable for the
  /// tree's lifetime; grows only under Insert/BulkLoad.
  const SphereStore& store() const { return *store_; }

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  const SsTreeOptions& options() const { return options_; }

  /// Height of the tree (0 when empty, 1 for a single leaf).
  size_t Height() const;

  /// \brief Validates structural invariants (the snapshot loader's last
  /// check, and tests'): every data sphere is covered by each ancestor's
  /// bounding sphere, node occupancies respect the limits, all leaves at
  /// the same depth, subtree counts are consistent, no store slot is
  /// referenced twice, and each internal node's packed child bounds equal
  /// its children's bounding spheres bit for bit. Returns the first
  /// violation found.
  Status CheckInvariants() const;

  /// \brief Writes the tree to `out` in the compact binary format
  /// described in ss_tree.cc (host endianness; a same-machine cache of
  /// expensive builds, not an interchange format). Files go through the
  /// checksummed snapshot envelope: SaveSnapshot() in index/snapshot.h.
  Status Serialize(std::ostream& out) const;

  /// \brief Reads a tree written by Serialize() into `*out` (replacing its
  /// contents). Derived per-node data (centroids, bounding spheres) is
  /// recomputed, so a successful load always satisfies CheckInvariants().
  /// Any format version but the current one is kNotSupported.
  static Status Deserialize(std::istream& in, SsTree* out);

 private:
  Status ValidateOptions() const;
  /// Descends to the leaf chosen by the cheapest-centroid rule, inserts, and
  /// splits overflowing nodes on the way back up.
  Status InsertRecursive(SsTreeNode* node, const SsTreeEntry& entry,
                         std::unique_ptr<SsTreeNode>* split_off);
  /// Recomputes `node`'s bounding sphere from its centroid and children,
  /// and repacks an internal node's child bounds.
  void RefreshBoundingSphere(SsTreeNode* node);
  /// Splits an overflowing node into `*sibling` (the new right half).
  Status SplitNode(SsTreeNode* node, std::unique_ptr<SsTreeNode>* sibling);
  /// Item partition for the split (White & Jain's variance cut): returns,
  /// for each item key, whether it goes to the new sibling.
  std::vector<bool> ChoosePartition(const std::vector<Point>& keys) const;
  /// Reads one slot-reference node record against a loaded store.
  static Status LoadNode(std::istream& in, const SphereStore& store,
                         size_t max_entries, size_t depth,
                         std::unique_ptr<SsTreeNode>* out_node);
  /// The top-down bulk loader's inputs and working arrays (ss_tree.cc).
  struct BulkInput;
  /// Builds the subtree of at most `span` rows (a leaf when `span` is the
  /// leaf capacity) over the inputs named by in->keyed[lo, hi), appending
  /// each leaf's rows to the store as the leaf is made.
  std::unique_ptr<SsTreeNode> BulkBuild(BulkInput* in, size_t lo, size_t hi,
                                        size_t span);
  /// Cuts in->keyed[lo, hi) into `groups` runs of near-equal size by binary
  /// cuts on the centre coordinate of largest variance, and appends each
  /// run's subtree of at most `child_span` rows to `parent`, in order.
  void BulkSplit(BulkInput* in, size_t lo, size_t hi, size_t groups,
                 size_t child_span, SsTreeNode* parent);
  /// Recomputes a node's centroid bookkeeping and bounding sphere from its
  /// current payload (bulk-load and load helper).
  void RebuildNodeStats(SsTreeNode* node);

  size_t dim_;
  SsTreeOptions options_;
  /// Columnar coordinate arena for every data sphere in the tree. Shared
  /// ownership so query-side result sets can pin it if they ever need to.
  std::shared_ptr<SphereStore> store_;
  std::unique_ptr<SsTreeNode> root_;
  size_t size_ = 0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_SS_TREE_H_

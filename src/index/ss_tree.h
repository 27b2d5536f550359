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
//   * Every node maintains the centroid of the data centers beneath it
//     (incrementally, via a coordinate sum and a count) and a bounding
//     radius covering all of its data spheres — the SS-tree's defining
//     property that yields compact regions in high dimension.
//   * Insertion descends to the child whose centroid is nearest the new
//     center (White & Jain's cheapest-centroid rule). Overflowing nodes are
//     split by the configured SsTreeSplitPolicy, subject to the options'
//     minimum fill ratio.
//   * Optional extras beyond White & Jain: SS+-style 2-means splits,
//     Welzl min-ball node bounds, STR bulk loading, deletion with
//     underflow dissolution, and binary persistence.

#ifndef HYPERDOM_INDEX_SS_TREE_H_
#define HYPERDOM_INDEX_SS_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"
#include "index/entry.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// SS-tree leaf entries are columnar-store handles.
using SsTreeEntry = StoredEntry;

/// How an overflowing SS-tree node is split.
enum class SsTreeSplitPolicy {
  /// White & Jain's original: cut the highest-variance coordinate at the
  /// position minimizing the two sides' summed variance.
  kVarianceCut,
  /// The SS+-tree refinement (Kurniawati et al. [20]): a 2-means (Lloyd)
  /// clustering of the item centers, seeded with the farthest pair —
  /// splits can be oblique, yielding rounder, tighter child spheres.
  kTwoMeans,
};

/// How a node's bounding sphere is computed.
enum class SsTreeBoundingPolicy {
  /// White & Jain's original: centered at the centroid of the contained
  /// data centers, radius covering everything. O(items) per refresh.
  kCentroid,
  /// Near-minimal enclosing ball (Welzl over the item centers, inflated to
  /// cover the items' extents; geometry/min_ball.h). Tighter regions and
  /// better query pruning for a costlier build.
  kMinBall,
};

/// Tuning options for SsTree.
struct SsTreeOptions {
  /// Maximum entries (leaf) or children (internal) per node. Must be >= 4.
  size_t max_entries = 24;
  /// Minimum fill ratio enforced by splits, in (0, 0.5].
  double min_fill_ratio = 0.4;
  /// Split algorithm; see SsTreeSplitPolicy.
  SsTreeSplitPolicy split_policy = SsTreeSplitPolicy::kVarianceCut;
  /// Bounding-sphere algorithm; see SsTreeBoundingPolicy.
  SsTreeBoundingPolicy bounding_policy = SsTreeBoundingPolicy::kCentroid;
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
  /// Number of data entries in this subtree.
  size_t subtree_size() const { return count_; }

 private:
  friend class SsTree;

  bool is_leaf_;
  Hypersphere bounding_;
  std::vector<SsTreeEntry> entries_;
  std::vector<std::unique_ptr<SsTreeNode>> children_;
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

  /// \brief Bulk-loads with Sort-Tile-Recursive packing (Leutenegger et
  /// al.): entries are tiled into spatially coherent leaves by recursive
  /// coordinate sorting, then packed bottom-up. Much faster than repeated
  /// insertion and usually tighter. Replaces any previous contents; ids
  /// are positions in `spheres`.
  Status BulkLoadStr(const std::vector<Hypersphere>& spheres);

  /// BulkLoadStr with caller-supplied ids (`ids[i]` tags `spheres[i]`;
  /// sizes must match). The compaction path of the mutable store uses
  /// this to rebuild a fresh tree while preserving the external ids the
  /// rows were inserted under.
  Status BulkLoadStrWithIds(const std::vector<Hypersphere>& spheres,
                            const std::vector<uint64_t>& ids);

  /// \brief Removes the entry with this exact id and sphere. Underflowing
  /// nodes (fewer than 2 items) are dissolved and their residents
  /// re-inserted, so invariants keep holding. NotFound if absent. The
  /// deleted sphere's store slot is abandoned, not reclaimed (the store is
  /// append-only; see storage/sphere_store.h).
  Status Delete(const Hypersphere& sphere, uint64_t id);

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

  /// \brief Validates structural invariants, for tests:
  /// every data sphere is covered by each ancestor's bounding sphere, node
  /// occupancies respect the limits, all leaves at the same depth, and
  /// subtree counts are consistent. Returns the first violation found.
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
  /// Inserts an already-stored entry (splits, root growth); shared by
  /// Insert() and the orphan-reinsertion path of Delete(), which must not
  /// re-add the sphere to the store.
  Status InsertStored(const SsTreeEntry& entry);
  /// Descends to the leaf chosen by the cheapest-centroid rule, inserts, and
  /// splits overflowing nodes on the way back up.
  Status InsertRecursive(SsTreeNode* node, const SsTreeEntry& entry,
                         std::unique_ptr<SsTreeNode>* split_off);
  /// Recomputes `node`'s bounding sphere from its centroid and children.
  void RefreshBoundingSphere(SsTreeNode* node);
  /// Splits an overflowing node into `*sibling` (the new right half).
  Status SplitNode(SsTreeNode* node, std::unique_ptr<SsTreeNode>* sibling);
  /// Item partition for the split, by the configured policy: returns, for
  /// each item key, whether it goes to the new sibling.
  std::vector<bool> ChoosePartition(const std::vector<Point>& keys) const;
  /// Reads one slot-reference node record against a loaded store.
  static Status LoadNode(std::istream& in, const SphereStore& store,
                         size_t max_entries, size_t depth,
                         std::unique_ptr<SsTreeNode>* out_node);
  /// Recursive STR tiler: packs entries[lo, hi) into leaves.
  void StrTile(std::vector<SsTreeEntry>* entries, size_t lo, size_t hi,
               size_t dim_index, size_t leaf_capacity,
               std::vector<std::unique_ptr<SsTreeNode>>* leaves);
  /// Recomputes a node's centroid bookkeeping and bounding sphere from its
  /// current payload (bulk-load/delete helper).
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

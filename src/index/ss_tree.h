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
//   * One way to build: top down, after White & Jain's VAMSplit, by
//     largest-variance cuts into groups of near-equal size (BulkLoadStr).
//     A tree is built once per dataset and never edited in place; the
//     mutable store (index/mutable_ss_tree.h) inserts into a delta and
//     deletes by tombstone over an immutable tree, and compacts by a
//     rebuild.
//   * Memory follows the traversal. The loader appends each leaf's rows to
//     the store as the leaf is made, so a leaf's rows are contiguous and
//     the leaves, read left to right, hold slots 0, 1, 2, …
//   * Every node's region is a bounding sphere that covers all of its
//     data spheres — the SS-tree's defining property that yields compact
//     regions in high dimension. Unlike White & Jain's sphere, which is
//     centred on the centroid, it is centred on the midpoint of the
//     axis-aligned box around the node's items (a leaf's entry spheres, an
//     internal node's child spheres), which sits nearer the middle of the
//     slab-shaped regions the variance cuts make, and its radius is the
//     least that covers every item from there. It is a pure function of
//     the items, so a reload reproduces it bit for bit.
//   * Next to its sphere, every child is bounded by the axis-aligned box
//     around its data spheres, after Katayama & Satoh's SR-tree (SIGMOD
//     1997): the low corner is the least c - r and the high corner the
//     greatest c + r over every data sphere beneath the child. A traversal
//     bounds a child by the larger of its sphere's and its box's MinDist;
//     at low d the box encloses a slab of spheres far more tightly than
//     any sphere does. An internal node keeps a packed copy of its
//     children's boxes and spheres, so a traversal bounds every child of a
//     node with two batched kernel calls without touching the child nodes;
//     the tree keeps the root's box. Boxes, like spheres, are derived from
//     the data: a reload recomputes them bit for bit, and the snapshot
//     format does not store them.
//   * Beyond White & Jain: binary persistence.

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
};

/// \brief SS-tree node. Public so that search strategies (query/knn.cc) and
/// tests can traverse the structure; only SsTree builds it.
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
  /// The children's bounds, packed in child order in one block of
  /// n * (3d + 1) doubles for n children (empty for a leaf): first the
  /// boxes, then the sphere centres, then the radii.
  const std::vector<double>& child_bounds() const { return child_bounds_; }
  /// Child i's box is the 2d doubles at child_boxes() + i * 2d: the least
  /// c - r, then the greatest c + r, per axis over every data sphere
  /// beneath the child.
  const double* child_boxes() const { return child_bounds_.data(); }
  /// Child i's sphere centre is the d doubles at child_centers() + i * d,
  /// its radius child_radii()[i]; bit-equal to its bounding_sphere().
  const double* child_centers() const {
    return child_boxes() + children_.size() * 2 * bounding_.dim();
  }
  const double* child_radii() const {
    return child_centers() + children_.size() * bounding_.dim();
  }
  /// Number of data entries in this subtree.
  size_t subtree_size() const { return count_; }

 private:
  friend class SsTree;

  bool is_leaf_;
  Hypersphere bounding_;
  std::vector<SsTreeEntry> entries_;
  std::vector<std::unique_ptr<SsTreeNode>> children_;
  /// Packed child bounds: the builder appends each child's box as the
  /// child is made, and SsTree::RefreshBoundingSphere the spheres.
  std::vector<double> child_bounds_;
  /// Number of data entries beneath this node.
  size_t count_ = 0;
};

/// \brief The SS-tree index.
class SsTree {
 public:
  /// Creates an empty tree for `dim`-dimensional data. `options` are
  /// validated by the bulk load.
  explicit SsTree(size_t dim, SsTreeOptions options = {});

  /// \brief Bulk-loads top down, after White & Jain's VAMSplit
  /// ("Similarity indexing: algorithms and performance", 1996). With
  /// capacity = 85% of max_entries, the root gets the least height h with
  /// capacity^h >= n, and a node of height h cuts its rows into
  /// ceil(rows / capacity^(h - 1)) children of near-equal size: binary
  /// cuts near the median, each on the centre coordinate of largest
  /// variance over at most 128 evenly strided rows. (VAMSplit fills whole
  /// subtrees and leaves the remainder to the last one; equal sizes keep
  /// every non-root node at 2 items or more.) All leaves are at one depth.
  /// Replaces any previous contents; ids are positions in `spheres`. Store
  /// rows are in leaf order, not input order: read the slot of an id from
  /// the leaves.
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

  /// The box around every data sphere, laid out as a packed child box
  /// (2 * dim doubles: low corner, then high corner); empty while the tree
  /// is empty.
  const std::vector<double>& root_box() const { return root_box_; }

  /// The columnar sphere storage backing every leaf entry. Fixed between
  /// builds; each bulk load or Deserialize() replaces it.
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
  /// referenced twice, each internal node's packed child spheres equal its
  /// children's bounding spheres bit for bit, and each packed child box,
  /// and the root box, equals the least c - r and greatest c + r over the
  /// data spheres beneath it bit for bit. Returns the first violation
  /// found.
  Status CheckInvariants() const;

  /// \brief Writes the tree to `out` in the compact binary format
  /// described in ss_tree.cc (host endianness; a same-machine cache of
  /// expensive builds, not an interchange format). Files go through the
  /// checksummed snapshot envelope: SaveSnapshot() in index/snapshot.h.
  Status Serialize(std::ostream& out) const;

  /// \brief Reads a tree written by Serialize() into `*out` (replacing its
  /// contents). Derived per-node data (subtree counts, bounding spheres and
  /// boxes) is recomputed, so a successful load always satisfies
  /// CheckInvariants() and has the saved tree's spheres and boxes bit for
  /// bit.
  /// Any format version but the current one is kNotSupported.
  static Status Deserialize(std::istream& in, SsTree* out);

 private:
  Status ValidateOptions() const;
  /// Recomputes `node`'s bounding sphere from its items (entry spheres or
  /// child spheres), centred on the midpoint of their bounding box; packs
  /// an internal node's child spheres behind the child boxes its builder
  /// packed; and writes the box around the node's data spheres to
  /// box[0, 2 * dim): the items' box in a leaf, the union of the child
  /// boxes above.
  void RefreshBoundingSphere(SsTreeNode* node, double* box);
  /// Appends a slot for the next child's box to `parent`'s packed bounds
  /// and returns it; it stays valid until the next slot is taken. Callers
  /// reserve the block's final size, n * (3 * dim + 1), first.
  double* NextChildBox(SsTreeNode* parent) const;
  /// Reads one slot-reference node record against a loaded store.
  static Status LoadNode(std::istream& in, const SphereStore& store,
                         size_t max_entries, size_t depth,
                         std::unique_ptr<SsTreeNode>* out_node);
  /// The top-down bulk loader's inputs and working arrays (ss_tree.cc).
  struct BulkInput;
  /// Builds the subtree of at most `span` rows (a leaf when `span` is the
  /// leaf capacity) over the inputs named by in->keyed[lo, hi), appending
  /// each leaf's rows to the store as the leaf is made, and writes its box
  /// to box[0, 2 * dim).
  std::unique_ptr<SsTreeNode> BulkBuild(BulkInput* in, size_t lo, size_t hi,
                                        size_t span, double* box);
  /// Cuts in->keyed[lo, hi) into `groups` runs of near-equal size by binary
  /// cuts on the centre coordinate of largest variance, and appends each
  /// run's subtree of at most `child_span` rows to `parent`, in order.
  void BulkSplit(BulkInput* in, size_t lo, size_t hi, size_t groups,
                 size_t child_span, SsTreeNode* parent);
  /// Recomputes a node's subtree count, bounding sphere and box (written
  /// to box[0, 2 * dim)) from its current payload (bulk-load and load
  /// helper).
  void RebuildNodeStats(SsTreeNode* node, double* box);

  size_t dim_;
  SsTreeOptions options_;
  /// Columnar coordinate arena for every data sphere in the tree. Shared
  /// ownership so query-side result sets can pin it if they ever need to.
  std::shared_ptr<SphereStore> store_;
  std::unique_ptr<SsTreeNode> root_;
  std::vector<double> root_box_;
  size_t size_ = 0;
};

}  // namespace hyperdom

#endif  // HYPERDOM_INDEX_SS_TREE_H_

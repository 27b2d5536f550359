// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "query/index_knn.h"

#include <algorithm>
#include <vector>

#include "query/knn_traversal.h"

namespace hyperdom {

// Each index below is only a node adapter for the shared DF/HS drivers
// (query/knn_traversal.h): its root bound, its child bounds, and its
// leaves' EntryView blocks.

namespace {

void RStarKnnSearchInto(const RStarTree& tree, const Hypersphere& sq,
                        SearchStrategy strategy, BestKnownList* list,
                        KnnStats* stats, TraversalGuard* guard) {
  const RStarTreeNode* root = tree.root();
  if (root == nullptr) return;
  const SphereStore& store = tree.store();
  std::vector<EntryView> leaf_scratch;
  auto visit = [&](const RStarTreeNode* node, const auto& emit_entries,
                   const auto& emit_child) {
    if (node->is_leaf()) {
      knn_internal::EmitLeaf(node->entries(), store, /*overlay=*/nullptr,
                             &leaf_scratch, emit_entries);
      return;
    }
    for (const auto& child : node->children()) {
      emit_child(MinDist(child->mbr(), sq), child.get());
    }
  };
  knn_internal::Traverse(root, MinDist(root->mbr(), sq), strategy, visit,
                         list, stats, guard);
}

void VpTreeKnnSearchInto(const VpTree& tree, const Hypersphere& sq,
                         SearchStrategy strategy, BestKnownList* list,
                         KnnStats* stats, TraversalGuard* guard) {
  const VpTreeNode* root = tree.root();
  if (root == nullptr) return;
  const SphereStore& store = tree.store();
  std::vector<EntryView> leaf_scratch;
  auto visit = [&](const VpTreeNode* node, const auto& emit_entries,
                   const auto& emit_child) {
    if (node->is_leaf()) {
      knn_internal::EmitLeaf(node->bucket(), store, /*overlay=*/nullptr,
                             &leaf_scratch, emit_entries);
      return;
    }
    // The vantage is a routing entry and a data entry at once.
    const EntryView vantage = store.Resolve(node->vantage());
    emit_entries(&vantage, 1);
    // A child's bound depends on its band of center distances to THIS
    // node's vantage point. Triangle inequality: any subtree center c has
    // Dist(c, cq) >= max(0, dvp - hi, lo - dvp); subtract the subtree's
    // fattest radius and the query radius for sphere MinDist.
    const double dvp = DistSpan(sq.center().data(), vantage.sphere.center,
                                store.dim());
    auto emit_band = [&](const VpTreeNode* child, double lo, double hi) {
      if (child == nullptr) return;
      const double center_lb = std::max({0.0, dvp - hi, lo - dvp});
      const double b = center_lb - child->max_radius() - sq.radius();
      emit_child(b > 0.0 ? b : 0.0, child);
    };
    emit_band(node->inside(), node->inside_lo(), node->inside_hi());
    emit_band(node->outside(), node->outside_lo(), node->outside_hi());
  };
  // Nothing bounds the root but the data itself.
  knn_internal::Traverse(root, 0.0, strategy, visit, list, stats, guard);
}

}  // namespace

KnnResult RStarKnnSearch(const RStarTree& tree, const Hypersphere& sq,
                         const DominanceCriterion& criterion,
                         const KnnOptions& options) {
  return knn_internal::RunSearch("rstar", tree, sq, criterion, options,
                                 RStarKnnSearchInto);
}

KnnResult VpTreeKnnSearch(const VpTree& tree, const Hypersphere& sq,
                          const DominanceCriterion& criterion,
                          const KnnOptions& options) {
  return knn_internal::RunSearch("vp", tree, sq, criterion, options,
                                 VpTreeKnnSearchInto);
}

}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The one index traversal behind every query that walks an index: the kNN
// query (paper Section 6, Definition 2) and the range query (query/range.h),
// both on the SS-tree. DF is the depth-first search of Roussopoulos et al.
// [26], HS the best-first search of Hjaltason & Samet [15]. Both prune a
// subtree once its lower bound exceeds the list's DistK(), and both poll
// the query's TraversalGuard before expanding a node and record the bound
// of every subtree a deadline skips.
//
// The drivers are generic over the list and the stats they feed:
//
//   * the list provides DistK(), the prune threshold, and
//     AccessBatch(rows, n), which takes one contiguous EntryView block. The
//     kNN query's list is the paper's best-known list
//     (query/best_known_list.h), whose distk shrinks as entries arrive; the
//     range query's collector returns its fixed radius;
//   * the stats provide nodes_visited, nodes_pruned and
//     nodes_deadline_skipped (KnnStats and RangeStats).
//
// The SS-tree plugs in through its node adapter (TraverseSsTree): the root,
// the root's bound, and
//
//   visit(node, emit_entries, emit_child)
//
// which hands over a leaf's data entries as one contiguous EntryView block
// (emit_entries(rows, n): one list->AccessBatch call) and each child of an
// internal node together with its bound (emit_child(bound, child)). A
// bound must lower-bound MinDist(S, Sq) for every data sphere S beneath the
// child, so a tighter bound is a change to the adapter alone
// (docs/performance.md §8).
//
// Child order, and so the node counts in the stats, follows std::sort and
// std::priority_queue on the bound alone: DF visits children in ascending
// bound order (ties keep emission order for fan-outs of 16 or fewer under
// libstdc++), HS pops the smallest bound first. Under a fixed threshold
// (range) the set of visited nodes does not depend on that order.
//
// Every dominance decision funnels through BestKnownList, which never
// prunes on an uncertain verdict, so the drivers stay exact under an
// error-aware criterion.
//
// Internal to the searchers (query/knn.cc, query/range.cc) and the shard
// scatter (shard/sharded_query.cc).

#ifndef HYPERDOM_QUERY_KNN_TRAVERSAL_H_
#define HYPERDOM_QUERY_KNN_TRAVERSAL_H_

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "index/overlay.h"
#include "index/ss_tree.h"
#include "query/best_known_list.h"
#include "query/knn_types.h"

namespace hyperdom {
namespace knn_internal {

template <typename Node, typename VisitFn, typename List, typename Stats>
void DepthFirst(const Node* node, double bound, const VisitFn& visit,
                List* list, Stats* stats, TraversalGuard* guard) {
  // A kNN list's distk shrinks while siblings are processed, so the bound is
  // re-checked here, at descent time, rather than where the child was
  // emitted.
  if (bound > list->DistK()) {
    ++stats->nodes_pruned;
    return;
  }
  if (guard->ShouldStop(stats->nodes_visited)) {
    ++stats->nodes_deadline_skipped;
    guard->NoteSkipped(bound);
    return;
  }
  ++stats->nodes_visited;
  std::vector<std::pair<double, const Node*>> order;
  visit(
      node,
      [list](const EntryView* rows, size_t n) { list->AccessBatch(rows, n); },
      [&order](double child_bound, const Node* child) {
        order.emplace_back(child_bound, child);
      });
  // Nearest bound first, so distk tightens early (Roussopoulos et al.'s
  // ordering heuristic).
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [child_bound, child] : order) {
    DepthFirst(child, child_bound, visit, list, stats, guard);
  }
}

template <typename Node, typename VisitFn, typename List, typename Stats>
void BestFirst(const Node* root, double root_bound, const VisitFn& visit,
               List* list, Stats* stats, TraversalGuard* guard) {
  using QueueItem = std::pair<double, const Node*>;
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    return a.first > b.first;  // min-heap on the bound
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> heap(
      cmp);
  heap.emplace(root_bound, root);
  while (!heap.empty()) {
    const auto [bound, node] = heap.top();
    heap.pop();
    if (bound > list->DistK()) {
      // The heap is ordered by bound: everything left is at least as far.
      stats->nodes_pruned += 1 + heap.size();
      break;
    }
    if (guard->ShouldStop(stats->nodes_visited)) {
      // The popped node carries the smallest bound left, so it alone
      // determines the pending bound for the abandoned frontier.
      guard->NoteSkipped(bound);
      stats->nodes_deadline_skipped += 1 + heap.size();
      break;
    }
    ++stats->nodes_visited;
    visit(
        node,
        [list](const EntryView* rows, size_t n) { list->AccessBatch(rows, n); },
        [&heap](double child_bound, const Node* child) {
          heap.emplace(child_bound, child);
        });
  }
}

/// Runs DF or HS from `root` (non-null) over a node adapter's `visit`.
template <typename Node, typename VisitFn, typename List, typename Stats>
void Traverse(const Node* root, double root_bound, SearchStrategy strategy,
              const VisitFn& visit, List* list, Stats* stats,
              TraversalGuard* guard) {
  if (strategy == SearchStrategy::kDepthFirst) {
    DepthFirst(root, root_bound, visit, list, stats, guard);
  } else {
    BestFirst(root, root_bound, visit, list, stats, guard);
  }
}

/// The SS-tree node adapter, shared by kNN and range. A non-null overlay's
/// delta rows live outside the tree: they go to the list first, in
/// contiguous blocks, which for kNN also tightens distk before any node is
/// descended. Then DF or HS runs over the tree, skipping the base slots the
/// overlay hides. A node's bound is the larger of the MinDist of its
/// bounding sphere and of the box around its data spheres (SR-tree
/// regions); an internal node's child bounds come from its packed block in
/// two batched kernel calls, the first bit-identical to MinDist on each
/// child's bounding sphere.
template <typename List, typename Stats>
void TraverseSsTree(const SsTree& tree, const Hypersphere& sq,
                    SearchStrategy strategy, const SearchOverlay* overlay,
                    List* list, Stats* stats, TraversalGuard* guard) {
  if (overlay != nullptr) {
    overlay->ForEachExtraBlock([list](const EntryView* rows, size_t n) {
      list->AccessBatch(rows, n);
    });
  }
  const SsTreeNode* root = tree.root();
  if (root == nullptr) return;
  const SphereStore& store = tree.store();
  const size_t dim = tree.dim();
  const double* q = sq.center().data();
  const double qr = sq.radius();
  std::vector<EntryView> leaf_scratch;
  std::vector<double> sphere_bounds;
  std::vector<double> box_bounds;
  auto visit = [&](const SsTreeNode* node, const auto& emit_entries,
                   const auto& emit_child) {
    if (node->is_leaf()) {
      // The leaf's store handles, resolved into one reused block (no
      // steady-state allocation), without the base slots the overlay hides.
      leaf_scratch.clear();
      for (const auto& entry : node->entries()) {
        if (overlay != nullptr && !overlay->VisibleBase(entry.slot)) continue;
        leaf_scratch.push_back(store.Resolve(entry));
      }
      emit_entries(leaf_scratch.data(), leaf_scratch.size());
      return;
    }
    const auto& children = node->children();
    const size_t n = children.size();
    sphere_bounds.resize(n);
    box_bounds.resize(n);
    BatchedMinDistSpan(node->child_centers(), node->child_radii(), dim, n, q,
                       qr, sphere_bounds.data());
    BatchedBoxMinDistSpan(node->child_boxes(), dim, n, q, qr,
                          box_bounds.data());
    for (size_t i = 0; i < n; ++i) {
      emit_child(std::max(sphere_bounds[i], box_bounds[i]),
                 children[i].get());
    }
  };
  double root_box_bound = 0.0;
  BatchedBoxMinDistSpan(tree.root_box().data(), dim, 1, q, qr,
                        &root_box_bound);
  Traverse(root, std::max(MinDist(root->bounding_sphere(), sq), root_box_bound),
           strategy, visit, list, stats, guard);
}

/// The one finalization: the exact final-Sk filter, or — when a deadline
/// cut the traversal short — the proven-subset filter against the smallest
/// skipped bound, flagged kBestEffort (docs/robustness.md §7).
inline void Finalize(bool expired, double pending_bound, BestKnownList* list,
                     KnnResult* result) {
  if (expired) {
    result->completeness = Completeness::kBestEffort;
    result->answers = list->TakeAnswersWithin(pending_bound);
  } else {
    result->answers = list->TakeAnswers();
  }
}

}  // namespace knn_internal
}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_TRAVERSAL_H_

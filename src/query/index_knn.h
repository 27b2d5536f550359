// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// kNN searchers (paper Definition 2) over the two ablation indexes, the
// R*-tree and the VP-tree. Each is a node adapter (root bound, child
// bounds, leaf EntryView blocks) for the DF/HS drivers the SS-tree searcher
// runs on too (query/knn_traversal.h), with the same best-known list and
// pruning semantics (query/best_known_list.h). All three indexes therefore
// return identical answer sets for the same criterion and options; they
// differ only in traversal cost, which is what the index-comparison
// ablation benchmark measures. These are kNN-only: the SS-tree is the one
// index that is batched, served, sharded, mutated and persisted.

#ifndef HYPERDOM_QUERY_INDEX_KNN_H_
#define HYPERDOM_QUERY_INDEX_KNN_H_

#include "dominance/criterion.h"
#include "index/rstar_tree.h"
#include "index/vp_tree.h"
#include "query/knn_types.h"

namespace hyperdom {

/// kNN over an R*-tree. Subtree bound: MinDist(node box, Sq).
KnnResult RStarKnnSearch(const RStarTree& tree, const Hypersphere& sq,
                         const DominanceCriterion& criterion,
                         const KnnOptions& options);

/// kNN over a VP-tree. Subtree bound: the triangle-inequality band around
/// the vantage point, corrected by the subtree's largest data radius.
KnnResult VpTreeKnnSearch(const VpTree& tree, const Hypersphere& sq,
                          const DominanceCriterion& criterion,
                          const KnnOptions& options);

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_INDEX_KNN_H_

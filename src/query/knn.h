// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The kNN query on hyperspheres (paper Section 6, Definition 2).
//
// Given a query hypersphere Sq and a dataset D of hyperspheres, the answer
// is the set of hyperspheres NOT dominated w.r.t. Sq by Sk, where Sk is the
// hypersphere with the k-th smallest MaxDist to Sq. (Under object
// uncertainty more than k objects can be possible k-nearest neighbors; the
// answer is every object that cannot be ruled out.)
//
// The searcher adapts the classical index-based kNN algorithms — DF, the
// depth-first traversal of Roussopoulos et al. [26], and HS, the best-first
// traversal of Hjaltason & Samet [15] — to hyperspheres by maintaining the
// paper's best-known list L (query/best_known_list.h). Subtrees are pruned
// when MinDist(node, Sq) > distk. The dominance criterion is pluggable;
// with a correct+sound criterion (Hyperbola) the result matches
// Definition 2 exactly, with merely-correct criteria it is a superset
// (lower precision), never a subset.
//
// KnnSearcher runs over the SS-tree, through its node adapter for the one
// pair of DF/HS drivers (query/knn_traversal.h) that range queries and the
// shard scatter share.

#ifndef HYPERDOM_QUERY_KNN_H_
#define HYPERDOM_QUERY_KNN_H_

#include <vector>

#include "common/deadline.h"
#include "dominance/criterion.h"
#include "index/overlay.h"
#include "index/ss_tree.h"
#include "query/knn_types.h"

namespace hyperdom {

class BestKnownList;

/// \brief Index-based kNN search over the SS-tree with a pluggable
/// dominance criterion.
///
/// The searcher borrows the criterion (not owned); it must outlive the
/// searcher. Thread-compatible: concurrent Search() calls are safe.
class KnnSearcher {
 public:
  KnnSearcher(const DominanceCriterion* criterion, KnnOptions options);

  /// Runs the query against an SS-tree.
  KnnResult Search(const SsTree& tree, const Hypersphere& sq) const;

  /// \brief Runs the query against an SS-tree through a mutability
  /// overlay (index/overlay.h): tombstoned base slots are skipped and the
  /// overlay's delta rows are scored exhaustively before the traversal
  /// (tightening distk early; the answer set is traversal-order
  /// independent). Null overlay behaves exactly like the two-argument
  /// form. The whole call runs under an epoch guard.
  KnnResult Search(const SsTree& tree, const Hypersphere& sq,
                   const SearchOverlay* overlay) const;

  const KnnOptions& options() const { return options_; }

 private:
  const DominanceCriterion* criterion_;
  KnnOptions options_;
};

/// \brief Traversal core without finalization: runs the SS-tree search for
/// `sq` into an externally owned list/stats/guard (the overlay's delta rows,
/// if any, are scored up front exactly as in KnnSearcher::Search). The
/// caller finalizes with TakeAnswers()/TakeAnswersWithin() — or merges
/// several per-shard lists first (BestKnownList::MergeFrom), which is what
/// the scatter-gather engine (src/shard/) does. The list's criterion/k/mode
/// define the pruning; `stats` must be the object the list was built with.
void KnnSearchInto(const SsTree& tree, const Hypersphere& sq,
                   SearchStrategy strategy, const SearchOverlay* overlay,
                   BestKnownList* list, KnnStats* stats,
                   TraversalGuard* guard);

/// \brief Reference evaluation of Definition 2 by linear scan: find distk
/// and Sk exactly, then keep every hypersphere not dominated by Sk.
///
/// `criterion` decides the dominance filter (use Hyperbola or the oracle
/// for exact ground truth). Ids in the result index into `data`.
KnnResult KnnLinearScan(const std::vector<Hypersphere>& data,
                        const Hypersphere& sq, size_t k,
                        const DominanceCriterion& criterion);

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_KNN_H_

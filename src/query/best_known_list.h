// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The paper's best-known list L (Section 6), factored out so that the
// SS-tree search and the shard merge (shard/sharded_query.h) share one
// implementation of the case-1/2/3 maintenance rules and of the final-Sk
// filter that makes the answer exactly Definition 2 (see DESIGN.md,
// "kNN answer semantics").

#ifndef HYPERDOM_QUERY_BEST_KNOWN_LIST_H_
#define HYPERDOM_QUERY_BEST_KNOWN_LIST_H_

#include <vector>

#include "dominance/criterion.h"
#include "query/knn_types.h"
#include "storage/sphere_store.h"

namespace hyperdom {

/// \brief Entries found so far, under the paper's maintenance rules:
///   case 1 (distmax <= distk): the top-k set changes;
///   case 2 (distmin <= distk < distmax): the dominance operator decides;
///   case 3 (distmin > distk): drop (Lemma 9).
/// In deferred mode (the default) the list keeps every entry that survives
/// case 3, unsorted with both bounds, and tracks distk as the top of a
/// max-heap of the k smallest MaxDists. TakeAnswers() then decides
/// dominance exactly once per candidate: it stable-sorts the candidates by
/// MaxDist and runs one DecideVerdictBatch of the FINAL Sk over every
/// candidate past position k. No interim decision is made, so the
/// surviving set is exactly the Definition-2 answer when the criterion is
/// correct and sound. Eager mode keeps the paper's Section-6 pseudocode
/// verbatim: a sorted list, with case-1 evictions and case-2 drops decided
/// against the interim Sk (the ablation baseline, DESIGN.md §3b).
///
/// The list works on non-owning EntryView handles: a traversal resolves its
/// index payloads (StoredEntry) against the tree's SphereStore and hands the
/// views in. Every view must stay valid until the list is consumed — store
/// rows qualify (a written row never moves: an SS-tree's store is fixed
/// between builds, and the mutable store appends into reserved slabs);
/// answers are materialized into owning DataEntry values only at the end.
class BestKnownList {
 public:
  /// Neither pointer is owned; both must outlive the list.
  BestKnownList(const DominanceCriterion* criterion, const Hypersphere* sq,
                size_t k, KnnPruningMode mode, KnnStats* stats);

  /// The current pruning bound distk (+inf until k entries are known):
  /// the k-th smallest MaxDist among the entries that survived case 3.
  /// Non-increasing over the lifetime of the list.
  double DistK() const { return distk_; }

  /// Applies the maintenance rules to a newly accessed entry. The view must
  /// outlive the list (see class comment).
  void Access(const EntryView& entry);

  /// Batched Access over a leaf-scan block: computes every entry's
  /// MinDist/MaxDist bounds with one fused batched kernel call
  /// (geometry/hypersphere.h), then applies the maintenance rules in
  /// order. Equivalent to calling Access(entries[i]) for i in [0, count)
  /// — same answers, same stats — because the rules themselves are
  /// sequentially dependent (each entry is judged against the distk its
  /// predecessors produced) and stay serial; only the O(d) distance work
  /// batches.
  void AccessBatch(const EntryView* entries, size_t count);

  /// Absorbs another list built over the same (criterion, sq, k, mode):
  /// every candidate of `other` is replayed in ascending MaxDist order,
  /// with the bounds it was accessed with, through this list's rules — in
  /// deferred mode only the case-3 distance test. `other` is left empty.
  ///
  /// Merge invariant (the scatter-gather contract, pinned by
  /// tests/bkl_merge_test.cc): in kDeferred mode, feeding a candidate
  /// stream through any partition into per-part lists and folding them
  /// with MergeFrom yields answers bit-identical to feeding the whole
  /// stream through one list. Dropping an entry shard-locally is globally
  /// safe — case 3 needs distmin > local interim distk >= global final
  /// distk — and no other decision is made before the final filter, so
  /// the merged candidate multiset still contains every Definition-2
  /// answer, and the final-Sk filter is order-independent.
  void MergeFrom(BestKnownList&& other);

  /// Final filter against the final Sk; consumes the list. Answers are
  /// ordered by ascending MaxDist to the query (ties in access order).
  std::vector<DataEntry> TakeAnswers();

  /// Best-effort variant used when a deadline cut the traversal short.
  /// `pending_bound` is the minimum MinDist over the subtrees the traversal
  /// skipped (TraversalGuard::pending_bound()). Returns only entries whose
  /// membership in the exact Definition-2 answer is certain: because
  /// dominance implies a strictly smaller MaxDist, the exact distk can
  /// never drop below L = min(DistK(), pending_bound), so every seen entry
  /// with MaxDist <= L belongs to the exact answer (docs/robustness.md §7).
  /// Consumes the list; answers ordered by ascending MaxDist.
  std::vector<DataEntry> TakeAnswersWithin(double pending_bound);

 private:
  struct Item {
    EntryView entry;
    double mindist;
    double maxdist;
  };

  /// One counted criterion call, three-valued: true only for a certified
  /// kDominates. kUncertain counts in stats and answers false, so an
  /// uncertain dominance can never prune an entry (conservative direction
  /// for error-aware criteria; plain bool criteria are unaffected).
  bool CertainlyDominates(const SphereView& sa, const SphereView& sb);

  /// The maintenance rules with both bounds precomputed (exactly the
  /// values MinDist/MaxDist(entry.sphere, sq) would return).
  void AccessBounded(const EntryView& entry, double distmin, double distmax);

  /// kDeferred: folds a candidate's MaxDist into the k-smallest heap.
  void PushMaxDist(double distmax);

  /// kEager: sorted insert behind equal MaxDists.
  void InsertSorted(const Item& item);

  /// Stable sort by ascending MaxDist: ties keep access order.
  void SortByMaxDist();

  /// Judges every entry past position k against the Sk at position k - 1
  /// as one DecideVerdictBatch block (same Sk for all, no early exit) and
  /// erases the dominated ones; returns how many it erased. An uncertain
  /// verdict keeps its entry.
  size_t DropDominatedTail();

  /// Leaves items_ holding exactly the answers, in answer order.
  void FilterFinal();

  const DominanceCriterion* criterion_;
  const Hypersphere* sq_;
  SphereView sq_view_;
  size_t k_;
  KnnPruningMode mode_;
  KnnStats* stats_;
  /// kEager: sorted by ascending MaxDist. kDeferred: every case-3 survivor
  /// in access order, sorted once by FilterFinal().
  std::vector<Item> items_;
  /// kDeferred: max-heap of the k smallest MaxDists seen (grows with the
  /// candidates, never sized by k up front).
  std::vector<double> kth_;
  double distk_;
  // Scratch for the batched kernels, reused across calls to keep the
  // query loop allocation-free in steady state.
  std::vector<SphereView> batch_views_;
  std::vector<double> batch_min_;
  std::vector<double> batch_max_;
  std::vector<Verdict> batch_verdicts_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_QUERY_BEST_KNOWN_LIST_H_

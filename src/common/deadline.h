// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Cooperative query deadlines. A Deadline bounds a traversal by wall-clock
// time and/or a node-visit budget; query drivers poll Expired() at each
// node they are about to expand and, on expiry, stop descending and return
// what they can prove so far. Results carry a Completeness tag so degraded
// answers are flagged, never silent.
//
// Best-effort answers keep a hard guarantee (see docs/robustness.md §7):
// the kNN drivers report only entries whose membership in the *exact*
// answer set is certain. The key monotonicity fact is that
// Dom(A, B, Sq) implies MaxDist(A, Sq) < MaxDist(B, Sq), so the exact
// k-th dominance distance can never drop below
//     L = min(interim DistK, min MinDist over deadline-skipped subtrees)
// and every seen entry with MaxDist <= L is in the exact answer.
// TraversalGuard tracks the second term (the "pending bound").

#ifndef HYPERDOM_COMMON_DEADLINE_H_
#define HYPERDOM_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

/// Whether a query result covers the whole search space or was cut short
/// by a deadline/budget.
enum class Completeness {
  kExact,       ///< the traversal ran to completion; the answer is exact
  kBestEffort,  ///< deadline expired; flagged partial (but certified) answer
};

/// "exact" or "best-effort".
std::string_view CompletenessName(Completeness completeness);

/// \brief A time and/or work budget for one query.
///
/// Value type; default-constructed it is unbounded. The node budget is an
/// exact, deterministic cutoff ("expand at most N nodes") used by tests;
/// the wall deadline is the production knob. Both can be set at once —
/// whichever trips first expires the query.
class Deadline {
 public:
  /// Unbounded: Expired() is always false.
  Deadline() = default;

  static Deadline Unbounded() { return Deadline(); }

  /// Expires once `max_node_visits` nodes have been expanded.
  static Deadline WithNodeBudget(uint64_t max_node_visits) {
    Deadline d;
    d.node_budget_ = max_node_visits;
    return d;
  }

  /// Expires `budget` from now (steady clock).
  static Deadline AfterDuration(std::chrono::nanoseconds budget) {
    Deadline d;
    d.has_wall_deadline_ = true;
    d.wall_deadline_ = ReadClock() + budget;
    return d;
  }

  /// The deadline of a wall budget in microseconds, as the wire carries
  /// it (server/protocol.h): expires `budget_micros` from now. 0 sets no
  /// wall deadline, and so does a budget that would take the deadline past
  /// the steady clock's range (about 292 years from its epoch), since it
  /// could never expire; converting that count instead would overflow
  /// into the past.
  static Deadline FromBudgetMicros(uint64_t budget_micros) {
    if (budget_micros == 0) return Deadline();
    const std::chrono::steady_clock::time_point now = ReadClock();
    const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::time_point::max() - now);
    if (budget_micros > static_cast<uint64_t>(headroom.count())) {
      return Deadline();
    }
    Deadline d;
    d.has_wall_deadline_ = true;
    d.wall_deadline_ = now + std::chrono::microseconds(budget_micros);
    return d;
  }

  /// Adds a node budget to an existing deadline.
  Deadline& SetNodeBudget(uint64_t max_node_visits) {
    node_budget_ = max_node_visits;
    return *this;
  }

  bool unbounded() const {
    return !has_wall_deadline_ && node_budget_ == kUnlimited;
  }
  uint64_t node_budget() const { return node_budget_; }
  bool has_wall_deadline() const { return has_wall_deadline_; }

  /// Exact, clock-free half of the expiry test: the node budget is spent
  /// (`nodes_visited >= budget`).
  bool NodeBudgetExpired(uint64_t nodes_visited) const {
    return nodes_visited >= node_budget_;
  }

  /// Clock-reading half of the expiry test: the wall deadline has passed.
  /// False when no wall deadline is set (and the clock is not read).
  bool WallExpired() const {
    if (!has_wall_deadline_) return false;
    return ReadClock() >= wall_deadline_;
  }

  /// True when the query must stop: the node budget is spent or the wall
  /// deadline has passed. The caller polls this *before* expanding a node,
  /// passing the number of nodes expanded so far. Hot loops should go
  /// through TraversalGuard::ShouldStop, which rate-limits the clock read.
  bool Expired(uint64_t nodes_visited) const {
    return NodeBudgetExpired(nodes_visited) || WallExpired();
  }

  /// Process-wide count of steady_clock reads made by Deadline. For the
  /// regression test that a budget-only deadline never touches the clock;
  /// monotonically increasing, racy-but-consistent.
  static uint64_t WallClockReads();

 private:
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  // The single funnel for steady_clock::now(), so clock usage is countable.
  static std::chrono::steady_clock::time_point ReadClock();

  uint64_t node_budget_ = kUnlimited;
  bool has_wall_deadline_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};
};

/// \brief Per-traversal deadline bookkeeping shared by the query drivers.
///
/// Wraps a Deadline with (a) a sticky expired flag — once a traversal
/// sees expiry it stays expired, so one wall-clock check governs the
/// whole wind-down — and (b) the pending bound: the minimum lower bound
/// (MinDist) over every subtree the traversal skipped because of expiry,
/// i.e. a floor on what the unexplored space could still contain.
/// +infinity while nothing was skipped.
///
/// Owns its Deadline by value (24 bytes), so a guard built from a
/// temporary (`TraversalGuard g(Deadline::AfterDuration(ms))`) or moved
/// into a worker-pool task never dangles.
class TraversalGuard {
 public:
  /// Wall-clock polls per actual steady_clock read in ShouldStop. The
  /// node-budget half of the test stays exact on every poll; only the
  /// clock read is rate-limited (always taken on the first poll, so a
  /// zero wall budget still stops the query before any node expands).
  static constexpr uint64_t kWallPollStride = 64;

  explicit TraversalGuard(Deadline deadline) : deadline_(deadline) {}

  /// Polled before expanding a node; `work_done` is the driver's count of
  /// nodes expanded so far. Sticky.
  bool ShouldStop(uint64_t work_done) {
    if (expired_) return true;
    if (deadline_.unbounded()) return false;
    if (deadline_.NodeBudgetExpired(work_done)) {
      MarkExpired();
    } else if (deadline_.has_wall_deadline() &&
               (wall_polls_++ % kWallPollStride) == 0 &&
               deadline_.WallExpired()) {
      MarkExpired();
    }
    return expired_;
  }

  /// Records the lower bound of a subtree skipped due to expiry.
  void NoteSkipped(double lower_bound) {
    if (lower_bound < pending_bound_) pending_bound_ = lower_bound;
  }

  /// True iff the deadline fired at least once during this traversal.
  bool expired() const { return expired_; }

  /// min MinDist over skipped subtrees; +inf when nothing was skipped.
  double pending_bound() const { return pending_bound_; }

 private:
  void MarkExpired() {
    expired_ = true;
    // The false->true transition happens at most once per traversal, so
    // the expiry instrumentation stays off the per-node polling path.
    HYPERDOM_COUNTER_INC(obs::kDeadlineExpired);
    HYPERDOM_SPAN_EVENT_CURRENT("deadline_expired");
  }

  Deadline deadline_;
  uint64_t wall_polls_ = 0;
  bool expired_ = false;
  double pending_bound_ = std::numeric_limits<double>::infinity();
};

}  // namespace hyperdom

#endif  // HYPERDOM_COMMON_DEADLINE_H_

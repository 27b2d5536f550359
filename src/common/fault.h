// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Deterministic fault injection. Fallible subsystems declare named sites
// (HYPERDOM_FAULT_POINT("ss_tree/str_pack")); tests arm the process-wide
// registry to make exactly the nth execution of a site — or a seeded
// pseudo-random fraction of all executions — fail with a Status. Every
// injected failure travels the same Status path a real failure would
// (a short read, an allocation error, a corrupt record), so the failure
// handling is exercised by tests instead of trusted on faith.
//
// Two kinds of site:
//   * HYPERDOM_FAULT_POINT(site)    expands to `return Status::Internal(...)`
//     when the site fires; usable only inside functions returning Status
//     or Result<T>.
//   * HYPERDOM_FAULT_DEGRADE(site)  evaluates to true when the site fires;
//     for code that cannot fail (e.g. the certified-dominance escalation
//     chain, which returns a Verdict) and instead degrades conservatively.
//
// Determinism contract: with the registry armed via ArmRandom(seed, p),
// whether a given (site, per-site hit index) fires is a pure function of
// (seed, site, index) — independent of thread interleaving, iteration
// order, or what other sites exist — so any failure reproduces from the
// seed alone. Single-threaded, the index is the process-wide per-site
// execution counter. Under concurrent queries that counter's *assignment*
// to queries would race, so query drivers (the exec/ batch engine) install
// a FaultQueryScope: while one is active, the stream is derived from
// (seed, site, query id, per-query hit index), all of which are
// thread-local facts — which query fails is then identical at any thread
// count. ArmSite's "nth execution" stays a process-wide notion either way.
//
// Every site is compiled into every build. While the registry is un-armed
// a site execution costs one relaxed atomic load (docs/robustness.md §6).

#ifndef HYPERDOM_COMMON_FAULT_H_
#define HYPERDOM_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hyperdom {

/// The canonical list of injection sites compiled into the library.
/// Sweep tests iterate this to prove every site propagates cleanly; keep
/// it in sync when adding a HYPERDOM_FAULT_POINT / HYPERDOM_FAULT_DEGRADE.
const std::vector<std::string_view>& AllFaultSites();

/// True for sites that degrade (HYPERDOM_FAULT_DEGRADE) rather than fail
/// with a Status: firing them can never produce a non-OK Status, only a
/// conservative answer (e.g. a kUncertain verdict).
bool IsDegradeFaultSite(std::string_view site);

/// \brief Process-wide fault-injection registry.
///
/// Thread-safe. Exactly one arming is active at a time: ArmSite() for a
/// targeted single-shot fault, ArmRandom() for seeded probabilistic
/// faults across all sites. Reset() disarms and clears all counters.
class FaultRegistry {
 public:
  static FaultRegistry& Instance();

  /// Disarms the registry and clears hit/injection counters.
  void Reset();

  /// Arms the `nth` execution (1-based) of `site` to fail. Replaces any
  /// previous arming; counters are cleared.
  void ArmSite(std::string_view site, uint64_t nth = 1);

  /// Arms every site to fail independently with `probability` on each
  /// execution, deterministically derived from (seed, site, per-site hit
  /// index). probability = 0 enables hit counting without ever firing
  /// (used by coverage tests). Replaces any previous arming.
  void ArmRandom(uint64_t seed, double probability);

  /// True when any arming is active (including ArmRandom with p = 0).
  bool armed() const { return enabled_.load(std::memory_order_relaxed); }

  /// Total faults injected since the last arming.
  uint64_t injected() const;

  /// Executions of `site` since the last arming (0 while disarmed —
  /// counting is only active while armed, keeping the disarmed fast path
  /// to one atomic load).
  uint64_t hits(std::string_view site) const;

  /// All (site, execution count) pairs observed since the last arming.
  std::vector<std::pair<std::string, uint64_t>> HitCounts() const;

  /// Called by HYPERDOM_FAULT_POINT: returns non-OK iff the site fires.
  Status Hit(std::string_view site);

  /// Called by HYPERDOM_FAULT_DEGRADE: returns true iff the site fires.
  bool HitDegrade(std::string_view site);

 private:
  FaultRegistry() = default;

  // Returns true when this execution of `site` should fire; updates the
  // per-site counter. Caller holds no lock.
  bool ShouldFire(std::string_view site, uint64_t* hit_index);

  enum class Mode { kDisarmed, kSite, kRandom };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Mode mode_ = Mode::kDisarmed;
  std::string armed_site_;
  uint64_t armed_nth_ = 0;
  uint64_t seed_ = 0;
  double probability_ = 0.0;
  uint64_t injected_ = 0;
  std::map<std::string, uint64_t, std::less<>> hit_counts_;
};

/// \brief RAII thread-local per-query fault context.
///
/// While a scope is active on a thread, ArmRandom firing decisions on that
/// thread are pure in (seed, site, query_id, per-query hit index) instead
/// of the process-wide per-site counter, making fault placement
/// reproducible under concurrent query execution (see the determinism
/// contract above). The batch engine installs one per query, with the
/// query's index in its batch as the id; single-query drivers run without
/// a scope and keep the historical global-counter stream. Scopes nest
/// (the outer context is restored on destruction); a scope must be
/// destroyed on the thread that created it.
class FaultQueryScope {
 public:
  explicit FaultQueryScope(uint64_t query_id);
  ~FaultQueryScope();

  FaultQueryScope(const FaultQueryScope&) = delete;
  FaultQueryScope& operator=(const FaultQueryScope&) = delete;

  /// True when a scope is active on this thread.
  static bool Active();

  /// The active scope's query id (0 when none is active).
  static uint64_t CurrentQueryId();

 private:
  bool prev_active_;
  uint64_t prev_query_id_;
  std::map<std::string, uint64_t, std::less<>> prev_hits_;
};

}  // namespace hyperdom

/// Fails the enclosing Status/Result-returning function when `site` fires.
#define HYPERDOM_FAULT_POINT(site)                                   \
  do {                                                               \
    if (::hyperdom::FaultRegistry::Instance().armed()) {             \
      ::hyperdom::Status _fault_status =                             \
          ::hyperdom::FaultRegistry::Instance().Hit(site);           \
      if (!_fault_status.ok()) return _fault_status;                 \
    }                                                                \
  } while (false)

/// Evaluates to true when `site` fires; the caller degrades conservatively.
#define HYPERDOM_FAULT_DEGRADE(site)                   \
  (::hyperdom::FaultRegistry::Instance().armed() &&    \
   ::hyperdom::FaultRegistry::Instance().HitDegrade(site))

/// Expression form of HYPERDOM_FAULT_POINT: evaluates to the injected
/// Status (OK unless `site` fires), for call sites that handle the
/// failure locally — e.g. the server's connection loop, which must close
/// the connection rather than return.
#define HYPERDOM_FAULT_POINT_STATUS(site)                  \
  (::hyperdom::FaultRegistry::Instance().armed()           \
       ? ::hyperdom::FaultRegistry::Instance().Hit(site)   \
       : ::hyperdom::Status::OK())

#endif  // HYPERDOM_COMMON_FAULT_H_

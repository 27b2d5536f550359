// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "common/fault.h"

#include <algorithm>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

// Every HYPERDOM_FAULT_POINT / HYPERDOM_FAULT_DEGRADE site in the library.
// Ordered by subsystem; the sweep test in tests/fault_injection_test.cc
// arms each once and asserts clean propagation.
constexpr std::string_view kAllSites[] = {
    // data/ — CSV load/save.
    "csv/open_read",
    "csv/parse_row",
    "csv/open_write",
    "csv/write_row",
    // index/ — build and (de)serialization.
    "ss_tree/str_pack",
    "ss_tree/serialize",
    "ss_tree/deserialize",
    // index/snapshot — checksummed persistence envelope.
    "snapshot/write",
    "snapshot/read",
    // index/rotation — generation rotation: fires between the generation
    // write and the CURRENT manifest update, the crash window the
    // last-good fallback exists for.
    "snapshot/rotate",
    // index/mutable_ss_tree — live write paths. Both fire BEFORE any
    // state is published, so a failure never leaves a torn store.
    "store/insert",
    "store/compact",
    // dominance/ — certified escalation chain (degrade sites: firing
    // forces the tier's outcome to "uncertain", never a Status).
    "certified/quartic",
    "certified/parametric",
    "certified/long_double",
    "certified/oracle",
    // server/ — network front-end request path. Covered by the armed
    // sweep in tests/server_e2e_test.cc (ctest label `server`), not the
    // generic workload sweep in fault_injection_test.cc.
    "server/accept",
    "server/read",
    "server/write",
    "server/enqueue",
    // shard/ — sharded scatter-gather engine. `shard/build` fires once
    // per shard during ShardedStore::Build; `shard/scatter` fires once
    // per (query, shard) before the per-shard traversal starts.
    "shard/build",
    "shard/scatter",
};

constexpr std::string_view kDegradePrefix = "certified/";

uint64_t HashSite(std::string_view site) {
  // FNV-1a, then one SplitMix64 round to spread the low bits.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001B3ULL;
  }
  return SplitMix64(h);
}

// Uniform [0, 1) draw that is a pure function of (seed, site, hit index).
double DrawUnit(uint64_t seed, std::string_view site, uint64_t index) {
  const uint64_t mixed =
      SplitMix64(seed ^ HashSite(site) ^ (index * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

// Query-scoped variant: pure in (seed, site, query id, per-query index).
// The query id is avalanched before mixing so ids 0,1,2,... (batch
// indices) land on independent-looking streams.
double DrawUnitForQuery(uint64_t seed, std::string_view site,
                        uint64_t query_id, uint64_t index) {
  return DrawUnit(seed ^ SplitMix64(query_id ^ 0xA5A5A5A5A5A5A5A5ULL), site,
                  index);
}

// Thread-local per-query fault context; installed by FaultQueryScope.
// Lives outside the registry so reading it never takes the registry lock.
struct QueryFaultContext {
  bool active = false;
  uint64_t query_id = 0;
  // Per-(query, site) execution counts; reset at scope entry so the hit
  // index restarts from 1 for every query.
  std::map<std::string, uint64_t, std::less<>> hits;
};

thread_local QueryFaultContext t_query_context;

// A firing is rare (tests arm a single site; random mode runs at low
// probability), so per-firing registry lookup and a span event are cheap.
void RecordFiring(std::string_view site) {
  obs::MetricsRegistry::Instance()
      .GetCounter(obs::kFaultInjected, "site", site)
      ->Add(1);
  obs::Span::CurrentEvent("fault/" + std::string(site));
}

}  // namespace

const std::vector<std::string_view>& AllFaultSites() {
  static const std::vector<std::string_view> sites(std::begin(kAllSites),
                                                   std::end(kAllSites));
  return sites;
}

bool IsDegradeFaultSite(std::string_view site) {
  return site.substr(0, kDegradePrefix.size()) == kDegradePrefix;
}

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kDisarmed;
  armed_site_.clear();
  armed_nth_ = 0;
  seed_ = 0;
  probability_ = 0.0;
  injected_ = 0;
  hit_counts_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

void FaultRegistry::ArmSite(std::string_view site, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kSite;
  armed_site_ = std::string(site);
  armed_nth_ = nth == 0 ? 1 : nth;
  injected_ = 0;
  hit_counts_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::ArmRandom(uint64_t seed, double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = Mode::kRandom;
  seed_ = seed;
  probability_ = std::clamp(probability, 0.0, 1.0);
  injected_ = 0;
  hit_counts_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

uint64_t FaultRegistry::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

uint64_t FaultRegistry::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hit_counts_.find(site);
  return it == hit_counts_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, uint64_t>> FaultRegistry::HitCounts()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hit_counts_.begin(), hit_counts_.end()};
}

bool FaultRegistry::ShouldFire(std::string_view site, uint64_t* hit_index) {
  // The per-query hit index is thread-local state, claimed before the
  // registry lock: its value cannot depend on how threads interleave.
  const bool query_scoped = t_query_context.active;
  uint64_t query_index = 0;
  if (query_scoped) {
    auto [it, inserted] = t_query_context.hits.try_emplace(std::string(site), 0);
    query_index = ++it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == Mode::kDisarmed) return false;
  auto [it, inserted] = hit_counts_.try_emplace(std::string(site), 0);
  *hit_index = ++it->second;
  bool fire = false;
  if (mode_ == Mode::kSite) {
    // "nth execution" is a process-wide notion; it stays on the global
    // counter even inside a query scope (single-shot arming targets build
    // paths, which run outside query scopes).
    fire = site == armed_site_ && *hit_index == armed_nth_;
  } else if (query_scoped) {
    fire = probability_ > 0.0 &&
           DrawUnitForQuery(seed_, site, t_query_context.query_id,
                            query_index) < probability_;
    *hit_index = query_index;
  } else {
    fire = probability_ > 0.0 &&
           DrawUnit(seed_, site, *hit_index) < probability_;
  }
  if (fire) ++injected_;
  return fire;
}

Status FaultRegistry::Hit(std::string_view site) {
  uint64_t index = 0;
  if (!ShouldFire(site, &index)) return Status::OK();
  RecordFiring(site);
  return Status::Internal("injected fault at " + std::string(site) +
                          " (hit " + std::to_string(index) + ")");
}

bool FaultRegistry::HitDegrade(std::string_view site) {
  uint64_t index = 0;
  if (!ShouldFire(site, &index)) return false;
  RecordFiring(site);
  return true;
}

FaultQueryScope::FaultQueryScope(uint64_t query_id)
    : prev_active_(t_query_context.active),
      prev_query_id_(t_query_context.query_id),
      prev_hits_(std::move(t_query_context.hits)) {
  t_query_context.active = true;
  t_query_context.query_id = query_id;
  t_query_context.hits.clear();
}

FaultQueryScope::~FaultQueryScope() {
  t_query_context.active = prev_active_;
  t_query_context.query_id = prev_query_id_;
  t_query_context.hits = std::move(prev_hits_);
}

bool FaultQueryScope::Active() { return t_query_context.active; }

uint64_t FaultQueryScope::CurrentQueryId() {
  return t_query_context.active ? t_query_context.query_id : 0;
}

}  // namespace hyperdom

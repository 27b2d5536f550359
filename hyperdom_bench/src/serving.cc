// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The serving workloads: wire_small, knn_paper and mixed_write. Each runs an
// in-process server::Server (default worker count) on loopback and drives
// it from kConnections generator threads, one client connection each, with
// max_attempts = 1 so every shed, error or timeout is counted, not retried
// away. The one answer the bench resends is a write refused with kConflict
// while a compaction builds: it was not applied, and the store accepts it
// again once the compaction is published.
//
// A run is: seeded data and query pool; untimed store builds for
// kWarmupSeconds, then kSetupRepeats timed store builds plus Start() up to
// the first answered Ping (setup_s); reference answers from
// KnnSearcher::Search on the served tree; every pool query sent once
// through the server and compared bit for bit; then the timed phases:
//
//   untraced run: closed loop for 1/3 of --seconds (capacity_qps), then
//                 open loop for 2/3 at the workload's rate (latencies, and
//                 the process CPU time per request, cpu_us_per_req);
//   traced run:   the same at half length, then an open-loop half against a
//                 second server whose criterion is the TimedCriterion, with
//                 the tracer on; per-layer metrics come from that half.
//
// The open loop sends on a seeded Poisson schedule and times each request
// from when it was due, so a stall also counts against the requests queued
// behind it; how late the generator itself ran is bench.send_lag_p99_us.
// Reads of the static workloads are compared with the reference during the
// window too. mixed_write keeps a model of the rows its connections
// inserted and removed; after the window it checks the store's live ids
// against the model and 200 quiesced queries against a static SS-tree
// rebuilt from it.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "exec/thread_pool.h"
#include "index/mutable_ss_tree.h"
#include "index/ss_tree.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/epoch.h"
#include "timed_criterion.h"

namespace hyperdom {
namespace bench {
namespace {

/// Quiesced queries checked against the rebuilt model after mixed_write.
constexpr size_t kModelQueries = 200;
/// Requests/s one closed-loop connection is assumed never to exceed (about
/// three times what wire_small reaches on a 4-core host); sizes the
/// sample buffers.
constexpr double kMaxClosedLoopRate = 25'000.0;
/// How long after its due time a write refused with kConflict is resent,
/// and the pause between resends.
constexpr auto kConflictRetryFor = std::chrono::seconds(5);
constexpr auto kConflictBackoff = std::chrono::microseconds(500);

// One timed phase of a run.
struct Phase {
  double seconds;
  double rate;  ///< requests/s over all connections; 0 = closed loop
  uint64_t index;  ///< distinct seeds and request ids per phase
  bool traced;
};

// What one generator thread saw in one phase (merged across threads after).
struct Tally {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> lag_us;
  std::vector<uint32_t> buckets;  ///< closed loop: completions per bucket
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t answers = 0;
  uint64_t delta_rows_max = 0;
  uint64_t epoch_lag_max = 0;
  double cpu_s = 0.0;  ///< process CPU time over the phase (merged only)

  // Appends `other`'s samples and counts, then frees its samples.
  void Absorb(Tally* other) {
    read_us.insert(read_us.end(), other->read_us.begin(), other->read_us.end());
    write_us.insert(write_us.end(), other->write_us.begin(),
                    other->write_us.end());
    lag_us.insert(lag_us.end(), other->lag_us.begin(), other->lag_us.end());
    if (buckets.size() < other->buckets.size()) {
      buckets.resize(other->buckets.size(), 0);
    }
    for (size_t i = 0; i < other->buckets.size(); ++i) {
      buckets[i] += other->buckets[i];
    }
    attempted += other->attempted;
    failed += other->failed;
    mismatches += other->mismatches;
    answers += other->answers;
    delta_rows_max = std::max(delta_rows_max, other->delta_rows_max);
    epoch_lag_max = std::max(epoch_lag_max, other->epoch_lag_max);
    *other = Tally{};
  }
};

// One connection's share of the write model: the rows it inserted and has
// not removed, plus rows whose insert or remove never got an answer (their
// state is read back from the store at the end).
struct Writes {
  uint64_t next_id = 0;
  std::unordered_map<uint64_t, Hypersphere> live;
  std::vector<uint64_t> live_ids;
  std::unordered_map<uint64_t, Hypersphere> unknown;
};

// The store under test: exactly one of the two is set.
struct Store {
  std::unique_ptr<SsTree> tree;
  std::unique_ptr<MutableSsTree> mutable_tree;
};

// What a generator thread needs to send requests.
struct Target {
  const Workload& w;
  uint16_t port;
  const std::vector<Hypersphere>& pool;
  /// Expected answers per pool query; null when reads are not checked in
  /// the window (mixed_write: the data changes under them).
  const std::vector<KnnResult>* reference;
  /// Sampled for delta rows and epoch lag in traced phases (mixed_write).
  const MutableSsTree* store;
};

// A server answer that means "not applied": the mutation was refused.
// Anything else that is not OK (transport failure, timeout) leaves the
// outcome unknown.
bool Refused(const Status& status) {
  switch (status.code()) {
    case StatusCode::kConflict:
    case StatusCode::kOverloaded:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      return true;
    default:
      return false;
  }
}

// A fresh sphere from the data's own distribution (MakeInputs).
Hypersphere RandomSphere(Rng* rng, size_t dim) {
  const SyntheticSpec spec;
  Point center(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    center[i] = rng->Gaussian(kCenterMean, kCenterStddev);
  }
  const double radius = std::max(
      0.0, rng->Gaussian(kRadiusMean, kRadiusMean * spec.radius_sigma_ratio));
  return Hypersphere(std::move(center), radius);
}

std::unique_ptr<server::Server> StartServer(const Store& store,
                                            const DominanceCriterion* c) {
  server::ServerOptions options;  // default workers: all cores
  auto s = store.tree != nullptr
               ? std::make_unique<server::Server>(store.tree.get(), c, options)
               : std::make_unique<server::Server>(store.mutable_tree.get(), c,
                                                  options);
  if (!s->Start().ok()) return nullptr;
  return s;
}

server::Client MakeClient(uint16_t port, uint64_t seed) {
  server::ClientOptions options;
  options.port = port;
  options.max_attempts = 1;
  options.jitter_seed = seed;  // also spreads request ids apart per client
  return server::Client(options);
}

// One kNN request; false if it failed. Write likewise for one mutation.
bool Read(const Target& t, server::Client* client, Rng* rng,
          Clock::time_point due, Tally* out) {
  const size_t q = static_cast<size_t>(rng->UniformU64(t.pool.size()));
  server::KnnRequest request;
  request.k = static_cast<uint32_t>(t.w.k);
  request.query = t.pool[q];
  Result<server::KnnResponse> response = Status::Internal("not sent");
  {
    obs::Span span("bench/knn");
    response = client->Knn(request);
    span.Annotate("request_id", client->last_request_id());
  }
  const Clock::time_point done = Clock::now();
  if (!response.ok()) {
    ++out->failed;
    return false;
  }
  out->read_us.push_back(MicrosSince(due, done));
  out->answers += response->answers.size();
  if (t.reference != nullptr &&
      (response->completeness != Completeness::kExact ||
       !SameAnswers(response->answers, (*t.reference)[q].answers))) {
    ++out->mismatches;
  }
  return true;
}

// Sends one mutation via `call` until the store stops refusing it with
// kConflict (it does while a compaction builds, tens of ms on 100k rows;
// the refused write was not applied, so resending it is what any client
// does), for at most kConflictRetryFor after it was due.
template <typename Call>
Status SendMutation(const char* span_name, server::Client* client,
                    Clock::time_point due, Call call) {
  for (;;) {
    Status status;
    {
      obs::Span span(span_name);
      status = call().status();
      span.Annotate("request_id", client->last_request_id());
    }
    if (status.code() != StatusCode::kConflict ||
        Clock::now() >= due + kConflictRetryFor) {
      return status;
    }
    std::this_thread::sleep_for(kConflictBackoff);
  }
}

bool Write(const Target& t, const Phase& p, server::Client* client, Rng* rng,
           Clock::time_point due, Writes* writes, Tally* out) {
  // 3 inserts : 1 remove of this connection's own earlier inserts.
  const bool remove = !writes->live_ids.empty() && rng->UniformU64(4) == 0;
  Status status;
  if (remove) {
    const size_t i =
        static_cast<size_t>(rng->UniformU64(writes->live_ids.size()));
    const uint64_t id = writes->live_ids[i];
    server::RemoveRequest request;
    request.id = id;
    status = SendMutation("bench/remove", client, due,
                          [&] { return client->Remove(request); });
    if (!Refused(status)) {
      writes->live_ids[i] = writes->live_ids.back();
      writes->live_ids.pop_back();
      auto row = writes->live.extract(id);
      if (!status.ok()) writes->unknown.insert(std::move(row));
    }
  } else {
    server::InsertRequest request;
    request.id = writes->next_id++;
    request.sphere = RandomSphere(rng, t.w.dim);
    status = SendMutation("bench/insert", client, due,
                          [&] { return client->Insert(request); });
    if (status.ok()) {
      writes->live_ids.push_back(request.id);
      writes->live.emplace(request.id, std::move(request.sphere));
    } else if (!Refused(status)) {
      writes->unknown.emplace(request.id, std::move(request.sphere));
    }
  }
  const Clock::time_point done = Clock::now();
  if (status.ok()) {
    out->write_us.push_back(MicrosSince(due, done));
  } else {
    ++out->failed;
  }
  if (p.traced && t.store != nullptr) {
    out->delta_rows_max =
        std::max<uint64_t>(out->delta_rows_max, t.store->delta_rows());
    out->epoch_lag_max =
        std::max(out->epoch_lag_max, EpochManager::Global().EpochLag());
  }
  return status.ok();
}

// One generator thread: its own connection, its own seeded stream of
// arrivals, query picks and writes.
void Drive(const Target& t, const Phase& p, Clock::time_point start,
           uint64_t seed, Writes* writes, Tally* out) {
  // Default timer slack lets sleep_until wake ~50 us late, which the open
  // loop would count as latency; ask for wake-ups on time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  server::Client client = MakeClient(t.port, seed);
  (void)client.Ping();  // connect before the phase starts
  Rng rng(seed);
  const double rate = p.rate / static_cast<double>(kConnections);
  // Room for every sample up front: growing a vector mid-window copies it,
  // which would delay this connection's next request. Untouched capacity
  // costs no resident memory.
  const size_t room = 1024 + static_cast<size_t>(
      p.seconds * (rate > 0.0 ? 1.5 * rate : kMaxClosedLoopRate));
  out->read_us.reserve(room);
  out->write_us.reserve(t.w.write_frac > 0.0 ? room : 0);
  out->lag_us.reserve(rate > 0.0 ? room : 0);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(p.seconds));
  std::this_thread::sleep_until(start);
  double due_s = 0.0;
  for (;;) {
    Clock::time_point due;
    if (rate > 0.0) {
      due_s += -std::log1p(-rng.NextDouble()) / rate;
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
      if (due >= end) break;
      // A request due while the previous one is still out waits for the
      // connection; that wait is queueing and counts in its latency. Only
      // a wake-up after the due time is the generator running late.
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        out->lag_us.push_back(MicrosSince(due, Clock::now()));
      }
    } else {
      due = Clock::now();
      if (due >= end) break;
    }
    ++out->attempted;
    const bool ok =
        t.w.write_frac > 0.0 && rng.NextDouble() < t.w.write_frac
            ? Write(t, p, &client, &rng, due, writes, out)
            : Read(t, &client, &rng, due, out);
    if (ok && rate == 0.0) CountCompletion(start, Clock::now(), &out->buckets);
  }
}

Tally RunPhase(const Target& t, const Phase& p, const RunOptions& options,
               std::vector<Writes>* writes) {
  std::vector<Tally> tallies(kConnections);
  std::vector<std::thread> threads;
  const double cpu_start = ProcessCpuSeconds();
  // Start slightly in the future so every thread has connected first.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(Drive, std::cref(t), std::cref(p), start,
                         options.StreamSeed(100 + p.index * kConnections + c),
                         &(*writes)[c], &tallies[c]);
  }
  for (std::thread& thread : threads) thread.join();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  // Exact-size merge, one thread's samples at a time, so the bench's own
  // memory stays proportional to the samples taken (rss_window_mb).
  Tally merged;
  size_t reads = 0, writes_done = 0, lags = 0;
  for (const Tally& tally : tallies) {
    reads += tally.read_us.size();
    writes_done += tally.write_us.size();
    lags += tally.lag_us.size();
  }
  merged.read_us.reserve(reads);
  merged.write_us.reserve(writes_done);
  merged.lag_us.reserve(lags);
  for (Tally& tally : tallies) merged.Absorb(&tally);
  merged.cpu_s = cpu_s;
  std::sort(merged.read_us.begin(), merged.read_us.end());
  std::sort(merged.write_us.begin(), merged.write_us.end());
  std::sort(merged.lag_us.begin(), merged.lag_us.end());
  return merged;
}

// Sends `queries[i]` for every i through the server (kConnections clients
// in parallel) and counts answers that differ from `expected[i]`. With
// `ordered` false the answer sets are compared in id order.
uint64_t CountServerMismatches(uint16_t port, size_t k,
                               const std::vector<Hypersphere>& queries,
                               const std::vector<KnnResult>& expected,
                               bool ordered) {
  auto by_id = [](std::vector<DataEntry> v) {
    std::sort(v.begin(), v.end(), [](const DataEntry& a, const DataEntry& b) {
      return a.id < b.id;
    });
    return v;
  };
  std::vector<uint64_t> mismatches(kConnections, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      server::Client client = MakeClient(port, 9'000 + c);
      for (size_t i = c; i < queries.size(); i += kConnections) {
        server::KnnRequest request;
        request.k = static_cast<uint32_t>(k);
        request.query = queries[i];
        const Result<server::KnnResponse> got = client.Knn(request);
        const bool same =
            got.ok() && got->completeness == Completeness::kExact &&
            (ordered ? SameAnswers(got->answers, expected[i].answers)
                     : SameAnswers(by_id(got->answers),
                                   by_id(expected[i].answers)));
        if (!same) ++mismatches[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t total = 0;
  for (uint64_t m : mismatches) total += m;
  return total;
}

// After mixed_write: the store's live rows must be the base data plus the
// model's rows (unknown outcomes resolved by the store), and quiesced
// queries must match a static SS-tree rebuilt from the model.
void CheckWriteModel(const Workload& w, const std::vector<Hypersphere>& data,
                     const std::vector<Writes>& writes,
                     const MutableSsTree& store, uint16_t port,
                     const std::vector<Hypersphere>& pool,
                     const DominanceCriterion& criterion, ThreadPool* threads,
                     Report* report) {
  std::vector<Hypersphere> live_spheres;
  std::vector<uint64_t> live_ids;
  {
    const MutableSsTree::ReadView view = store.Pin();
    view.CollectLive(&live_spheres, &live_ids);
  }
  const std::unordered_set<uint64_t> in_store(live_ids.begin(),
                                              live_ids.end());
  std::vector<Hypersphere> spheres = data;
  std::vector<uint64_t> ids(data.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (const Writes& conn : writes) {
    for (const auto& [id, sphere] : conn.live) {
      spheres.push_back(sphere);
      ids.push_back(id);
    }
    for (const auto& [id, sphere] : conn.unknown) {
      if (in_store.count(id) == 0) continue;
      spheres.push_back(sphere);
      ids.push_back(id);
    }
  }
  bool same_rows = ids.size() == live_ids.size();
  for (uint64_t id : ids) same_rows = same_rows && in_store.count(id) == 1;
  report->Check("model_rows", ids.size(), same_rows);

  SsTree model(w.dim);
  if (!model.BulkLoadStrWithIds(spheres, ids).ok()) {
    report->Check("model_queries", 0, false);
    return;
  }
  const std::vector<Hypersphere> queries(
      pool.begin(), pool.begin() + std::min(kModelQueries, pool.size()));
  const std::vector<KnnResult> expected =
      ReferenceAnswers(model, queries, criterion, w.k, threads);
  report->Check("model_queries", queries.size(),
                CountServerMismatches(port, w.k, queries, expected,
                                      /*ordered=*/false) == 0);
}

// What the trace ring says about the server: the mean server/request span
// (a worker processing one request), and the mean of (bench client span -
// server/request span) over kNN requests whose two spans are both still in
// the ring, joined on request id.
struct SpanJoin {
  double in_server_us = 0.0;
  double outside_us = 0.0;
  uint64_t joined = 0;
};

SpanJoin JoinSpans(const std::vector<obs::TraceRecord>& records) {
  auto request_id = [](const obs::TraceRecord& r) -> uint64_t {
    for (const obs::TraceArg& arg : r.args) {
      if (arg.key == "request_id") return std::stoull(arg.value);
    }
    return 0;
  };
  std::unordered_map<uint64_t, int64_t> server_ns;
  double server_sum_ns = 0.0;
  uint64_t server_spans = 0;
  for (const obs::TraceRecord& r : records) {
    if (r.name != "server/request") continue;
    server_ns[request_id(r)] = r.dur_ns;
    server_sum_ns += static_cast<double>(r.dur_ns);
    ++server_spans;
  }
  SpanJoin join;
  join.in_server_us =
      Ratio(server_sum_ns, static_cast<double>(server_spans)) / 1e3;
  double outside_sum_ns = 0.0;
  for (const obs::TraceRecord& r : records) {
    if (r.name != "bench/knn") continue;
    const auto it = server_ns.find(request_id(r));
    if (it == server_ns.end() || it->first == 0) continue;
    outside_sum_ns += static_cast<double>(r.dur_ns - it->second);
    ++join.joined;
  }
  join.outside_us =
      Ratio(outside_sum_ns, static_cast<double>(join.joined)) / 1e3;
  return join;
}

}  // namespace

void RunServing(const RunOptions& options, Report* report) {
  const Workload w = Scaled(options);
  const bool mutable_store = w.backend == Backend::kMutable;
  const Inputs inputs = MakeInputs(w, options);
  const std::vector<Hypersphere>& data = inputs.data;
  const std::vector<Hypersphere>& pool = inputs.pool;
  std::vector<uint64_t> ids(data.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const std::unique_ptr<DominanceCriterion> criterion =
      MakeCriterion(CriterionKind::kHyperbola);
  ThreadPool threads(kConnections);

  auto build = [&](Store* s) {
    if (mutable_store) {
      s->mutable_tree = std::make_unique<MutableSsTree>(w.dim);
      return s->mutable_tree->Build(data, ids).ok();
    }
    s->tree = std::make_unique<SsTree>(w.dim);
    return s->tree->BulkLoadStr(data).ok();
  };
  if (!WarmUp([&] {
        Store s;
        return build(&s);
      })) {
    report->Check("setup", 0, false);
    return;
  }

  // Set-up: the median of kSetupRepeats (store build + Start + first Ping).
  // The last round's store and server are the ones measured.
  if (options.traced()) obs::Tracer::Instance().Enable(kTraceCapacity);
  Store store;
  std::unique_ptr<server::Server> server;
  std::vector<double> setup_s;
  const RegistrySnapshot before_setup = RegistrySnapshot::Take();
  for (size_t round = 0; round < kSetupRepeats; ++round) {
    server.reset();
    store = Store{};
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    bool built = false;
    {
      obs::Span span("bench/store_build");
      built = build(&store);
    }
    if (built) server = StartServer(store, criterion.get());
    if (server == nullptr || !MakeClient(server->port(), 1).Ping().ok()) {
      report->Check("setup", round, false);
      return;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  const RegistrySnapshot setup = RegistrySnapshot::Take() - before_setup;
  const double setup_rss_mb = PeakRssMb();
  report->Check("setup", kSetupRepeats, true);
  if (options.traced()) {
    obs::Tracer::Instance().Disable();
    SaveTrace(options, "setup.trace.json", report);
  }

  // Reference answers from the served tree, then every pool query once
  // through the server, before any write.
  auto answers_with = [&](const DominanceCriterion& c) {
    if (!mutable_store) {
      return ReferenceAnswers(*store.tree, pool, c, w.k, &threads);
    }
    const MutableSsTree::ReadView view = store.mutable_tree->Pin();
    return ReferenceAnswers(view.tree(), pool, c, w.k, &threads);
  };
  const std::vector<KnnResult> reference = answers_with(*criterion);
  report->Check("reference", pool.size(),
                CountServerMismatches(server->port(), w.k, pool, reference,
                                      /*ordered=*/true) == 0);
  if (options.smoke) {
    // The decorator must not change a single answer.
    report->Check(
        "timed_criterion", pool.size(),
        SameAnswers(answers_with(TimedCriterion(criterion.get())), reference));
  }

  // The timed phases.
  std::vector<Writes> writes(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    writes[c].next_id = (uint64_t{1} << 40) + (uint64_t{c} << 32);
  }
  const double share = options.traced() ? 0.5 : 1.0;
  Target target{w, server->port(), pool,
                mutable_store ? nullptr : &reference,
                store.mutable_tree.get()};
  // Closed loop first, straight after the busy pre-window check: started
  // after the lightly loaded open loop instead, it often ran at half speed
  // for seconds, as if the host had parked the idle vCPUs.
  const Tally closed = RunPhase(
      target, Phase{options.seconds * share / 3, 0.0, 0, false}, options,
      &writes);
  const Tally open = RunPhase(
      target, Phase{options.seconds * share * 2 / 3, w.open_rate, 1, false},
      options, &writes);

  // Traced half: a second server over the same store whose criterion is
  // the TimedCriterion, with the tracer on.
  const TimedCriterion timed(criterion.get());
  Tally traced;
  RegistrySnapshot window;
  std::vector<obs::TraceRecord> records;
  if (options.traced()) {
    server.reset();
    server = StartServer(store, &timed);
    if (server == nullptr) {
      report->Check("traced_server", 0, false);
      return;
    }
    target.port = server->port();
    const RegistrySnapshot before = RegistrySnapshot::Take();
    obs::Tracer::Instance().Enable(kTraceCapacity);
    traced = RunPhase(
        target, Phase{options.seconds * 0.5, w.open_rate, 2, true}, options,
        &writes);
    obs::Tracer::Instance().Disable();
    window = RegistrySnapshot::Take() - before;
    records = obs::Tracer::Instance().Records();
    SaveTrace(options, "window.trace.json", report);
  }
  // Before the post-window checks, whose memory is the bench's own.
  const double window_rss_mb = PeakRssMb();

  uint64_t attempted = 0, failed = 0, mismatches = 0, reads = 0;
  const Tally* const phases[] = {&open, &closed, &traced};
  for (const Tally* t : phases) {
    attempted += t->attempted;
    failed += t->failed;
    mismatches += t->mismatches;
    reads += t->read_us.size();
  }
  report->Requests(attempted, failed);
  if (!mutable_store) {
    report->Check("window", reads, mismatches == 0);
  } else {
    CheckWriteModel(w, data, writes, *store.mutable_tree, server->port(), pool,
                    *criterion, &threads, report);
  }
  server.reset();

  // End-to-end metrics, from the untraced phases.
  report->Metric("setup_s", Median(setup_s), "s");
  ReportLatencies(open.read_us, "", report);
  report->Metric("cpu_us_per_req",
                 1e6 * Ratio(open.cpu_s, static_cast<double>(open.attempted)),
                 "us");
  if (mutable_store) ReportLatencies(open.write_us, "write_", report);
  report->Metric("bench.send_lag_p99_us", Percentile(open.lag_us, 0.99), "us");
  report->Metric("capacity_qps",
                 MedianBucketRate(closed.buckets, options.seconds * share / 3),
                 "1/s");
  report->Metric("answered_frac",
                 1.0 - Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                 "ratio");
  report->Metric("rss_mb", setup_rss_mb, "MB");
  report->Metric("rss_window_mb", window_rss_mb, "MB");
  report->Metric("index.build_s",
                 static_cast<double>(setup.index_build.sum) / 1e9 /
                     static_cast<double>(kSetupRepeats),
                 "s");
  if (!options.traced()) return;

  // Per-layer metrics, from the traced half.
  const double queries = static_cast<double>(window.knn_queries);
  const double request_us = window.server_request.MeanMicros();
  const SpanJoin join = JoinSpans(records);
  // server.outside_us needs client and server spans joined on request id.
  report->Check("span_join", join.joined, join.joined > 0);
  report->Metric("bench.trace_overhead_pct",
                 100.0 * (Ratio(Percentile(traced.read_us, 0.5),
                                Percentile(open.read_us, 0.5)) -
                          1.0),
                 "%");
  // The request histogram runs from admission; the span from dequeue.
  report->Metric("server.request_us", request_us, "us");
  report->Metric("server.outside_us", join.outside_us, "us");
  report->Metric("server.queue_us", request_us - join.in_server_us, "us");
  report->Metric("server.shed", static_cast<double>(window.shed), "count");
  report->Metric("server.protocol_errors",
                 static_cast<double>(window.protocol_errors), "count");
  QueryTotals q;
  q.queries = queries;
  q.knn_ns = static_cast<double>(window.knn_duration.sum);
  q.nodes_visited = window.nodes_visited;
  q.nodes_pruned = window.nodes_pruned;
  q.entries_accessed = window.entries_accessed;
  q.answers = traced.answers;
  q.dominance_checks = window.dominance_checks;
  q.pruned_case2 = window.pruned_case2;
  ReportQueryLayers(q, timed.Read(), report);
  report->Metric("exec.tasks_per_q",
                 Ratio(static_cast<double>(window.exec_tasks), queries),
                 "count");
  if (mutable_store) {
    report->Metric("store.compactions",
                   static_cast<double>(window.compactions), "count");
    report->Metric("store.compaction_ms",
                   window.compaction.MeanMicros() / 1e3, "ms");
    report->Metric("store.conflicts", static_cast<double>(window.conflicts),
                   "count");
    report->Metric("store.delta_rows_max",
                   static_cast<double>(traced.delta_rows_max), "count");
    report->Metric("store.epoch_lag_max",
                   static_cast<double>(traced.epoch_lag_max), "count");
  }
}

}  // namespace bench
}  // namespace hyperdom

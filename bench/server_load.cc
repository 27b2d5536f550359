// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Closed-loop load generator for the hyperdom query server: an in-process
// Server on a loopback ephemeral port, driven by C closed-loop client
// threads (each sends the next request the moment the previous response
// lands). Sweeps:
//
//   * throughput/latency at C = 1/2/4/8 clients against a generously
//     provisioned server — p50/p99 client-observed latency and QPS, with
//     every tenth request carrying a ~1 ms budget so deadline-expiry
//     best-effort responses flow through the full wire path;
//   * an overload point — 8 clients against 1 permit with a queue bound of
//     1 — demonstrating load shedding: requests are refused with
//     kOverloaded immediately (no hang, no crash) and the shed rate is
//     reported;
//   * a contention point — 32 clients against 2 permits and a queue wide
//     enough to shed nothing — where most requests wait for a permit and
//     each release hands one to the oldest waiter;
//   * the admin plane's cost at the top throughput point.
//
// Emits bench/results/BENCH_server.json via --json-out; --smoke shrinks
// the workload so the whole binary finishes in a couple of seconds (the
// tier-1 smoke test runs it that way).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/table_printer.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "server/admin.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace hyperdom;

struct ClientTally {
  std::vector<double> latency_micros;
  uint64_t exact = 0;
  uint64_t best_effort = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
};

struct SweepResult {
  size_t concurrency = 0;
  uint64_t requests = 0;
  double qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double p999_micros = 0.0;
  double max_micros = 0.0;
  double shed_rate = 0.0;
  double best_effort_rate = 0.0;
};

// One closed-loop client: `requests` back-to-back kNN calls, every tenth
// with a 50 us budget — well under one query's service time, so the
// deadline (started at ADMISSION) expires mid-traversal and the server
// degrades to a proven-subset best-effort response over the wire.
void ClientLoop(uint16_t port, const std::vector<Hypersphere>& queries,
                size_t requests, size_t offset, bool allow_retry,
                ClientTally* tally) {
  server::ClientOptions options;
  options.port = port;
  options.max_attempts = allow_retry ? 4 : 1;
  options.jitter_seed = 0x5EEDu + offset;
  server::Client client(options);
  for (size_t i = 0; i < requests; ++i) {
    server::KnnRequest request;
    request.query = queries[(offset + i) % queries.size()];
    request.k = 10;
    if (i % 10 == 9) request.budget_micros = 50;
    const auto start = std::chrono::steady_clock::now();
    Result<server::KnnResponse> response = client.Knn(request);
    const auto stop = std::chrono::steady_clock::now();
    if (response.ok()) {
      tally->latency_micros.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
      if (response->completeness == Completeness::kExact) {
        ++tally->exact;
      } else {
        ++tally->best_effort;
      }
    } else if (response.status().code() == StatusCode::kOverloaded) {
      ++tally->shed;
    } else {
      ++tally->errors;
    }
  }
}

// Runs one sweep point: `concurrency` closed-loop clients against the
// server at `port`, `requests_per_client` calls each.
SweepResult RunSweep(uint16_t port, const std::vector<Hypersphere>& queries,
                     size_t concurrency, size_t requests_per_client,
                     bool allow_retry) {
  std::vector<ClientTally> tallies(concurrency);
  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < concurrency; ++c) {
    threads.emplace_back(ClientLoop, port, std::cref(queries),
                         requests_per_client, c * 7919, allow_retry,
                         &tallies[c]);
  }
  for (auto& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SweepResult result;
  result.concurrency = concurrency;
  std::vector<double> latencies;
  uint64_t answered = 0, shed = 0, best_effort = 0, errors = 0;
  for (const auto& tally : tallies) {
    latencies.insert(latencies.end(), tally.latency_micros.begin(),
                     tally.latency_micros.end());
    answered += tally.exact + tally.best_effort;
    best_effort += tally.best_effort;
    shed += tally.shed;
    errors += tally.errors;
  }
  result.requests = answered + shed + errors;
  std::sort(latencies.begin(), latencies.end());
  result.p50_micros = bench::Percentile(latencies, 0.50);
  result.p99_micros = bench::Percentile(latencies, 0.99);
  result.p999_micros = bench::Percentile(latencies, 0.999);
  result.max_micros = latencies.empty() ? 0.0 : latencies.back();
  result.qps = wall_seconds > 0.0
                   ? static_cast<double>(answered) / wall_seconds
                   : 0.0;
  const double total = static_cast<double>(result.requests);
  result.shed_rate = total > 0.0 ? static_cast<double>(shed) / total : 0.0;
  result.best_effort_rate =
      total > 0.0 ? static_cast<double>(best_effort) / total : 0.0;
  if (errors > 0) {
    std::fprintf(stderr, "warning: %llu unexpected client errors at C=%zu\n",
                 static_cast<unsigned long long>(errors), concurrency);
  }
  return result;
}

std::string ResultRow(const SweepResult& r) {
  return "{\"concurrency\": " + std::to_string(r.concurrency) +
         ", \"requests\": " + std::to_string(r.requests) +
         ", \"qps\": " + FormatDouble(r.qps) +
         ", \"p50_micros\": " + FormatDouble(r.p50_micros) +
         ", \"p99_micros\": " + FormatDouble(r.p99_micros) +
         ", \"p999_micros\": " + FormatDouble(r.p999_micros) +
         ", \"max_micros\": " + FormatDouble(r.max_micros) +
         ", \"shed_rate\": " + FormatDouble(r.shed_rate, 4) +
         ", \"best_effort_rate\": " + FormatDouble(r.best_effort_rate, 4) +
         "}";
}

void AddTableRow(TablePrinter& table, const SweepResult& r) {
  char qps[32], p50[32], p99[32], p999[32], maxl[32], shed[32], be[32];
  std::snprintf(qps, sizeof(qps), "%.0f", r.qps);
  std::snprintf(p50, sizeof(p50), "%.1f us", r.p50_micros);
  std::snprintf(p99, sizeof(p99), "%.1f us", r.p99_micros);
  std::snprintf(p999, sizeof(p999), "%.1f us", r.p999_micros);
  std::snprintf(maxl, sizeof(maxl), "%.1f us", r.max_micros);
  std::snprintf(shed, sizeof(shed), "%.2f%%", 100.0 * r.shed_rate);
  std::snprintf(be, sizeof(be), "%.2f%%", 100.0 * r.best_effort_rate);
  table.AddRow({std::to_string(r.concurrency), std::to_string(r.requests),
                qps, p50, p99, p999, maxl, shed, be});
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Server closed-loop load",
      "N = 100k, d = 4, k = 10, Hyperbola; in-process server on loopback");
  bench::Reporter reporter(argc, argv, "server_load");

  SyntheticSpec spec;
  spec.n = reporter.Scaled(100'000, 5'000);
  spec.dim = 4;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 18'000;
  const auto data = GenerateSynthetic(spec);

  SsTree tree(spec.dim);
  const Status st = tree.BulkLoadStr(data);
  (void)st;  // generated data is well-formed
  const std::vector<Hypersphere> queries =
      MakeKnnQueries(data, reporter.Scaled(1'000, 100), 18'100);
  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);

  const size_t requests_per_client = reporter.Scaled(2'000, 50);
  const std::vector<size_t> concurrencies =
      reporter.smoke() ? std::vector<size_t>{1, 2}
                       : std::vector<size_t>{1, 2, 4, 8};

  // Sweep 1: throughput/latency against a generously provisioned server.
  std::vector<std::string> rows;
  TablePrinter table({"clients", "requests", "qps", "p50", "p99", "p99.9",
                      "max", "shed", "best-effort"});
  {
    server::ServerOptions options;
    options.worker_threads = 0;  // all cores
    options.queue_capacity = 1024;
    server::Server server(&tree, criterion.get(), options);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    for (size_t concurrency : concurrencies) {
      const SweepResult r =
          RunSweep(server.port(), queries, concurrency, requests_per_client,
                   /*allow_retry=*/true);
      AddTableRow(table, r);
      rows.push_back(ResultRow(r));
    }
    server.Stop();
  }
  std::printf("\n-- closed-loop throughput (permits = all cores) --\n");
  table.Print();
  reporter.RawSweep("throughput", rows);

  // Sweep 2: overload — 8 closed-loop clients vs 1 permit and a queue
  // bound of 1. Clients do NOT retry here, so every refusal is counted;
  // the interesting outcome is a nonzero shed rate with zero errors.
  std::vector<std::string> shed_rows;
  TablePrinter shed_table({"clients", "requests", "qps", "p50", "p99",
                           "p99.9", "max", "shed", "best-effort"});
  {
    server::ServerOptions options;
    options.worker_threads = 1;
    options.queue_capacity = 1;
    server::Server server(&tree, criterion.get(), options);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    const SweepResult r = RunSweep(
        server.port(), queries, reporter.Scaled(8, 4),
        requests_per_client, /*allow_retry=*/false);
    AddTableRow(shed_table, r);
    shed_rows.push_back(ResultRow(r));
    server.Stop();
  }
  std::printf("\n-- overload shedding (1 permit, queue bound 1) --\n");
  shed_table.Print();
  reporter.RawSweep("overload shedding", shed_rows);

  // Sweep 3: contention — many more clients than permits, and a queue bound
  // above the client count so nothing is shed and most requests wait for
  // a permit.
  std::vector<std::string> contention_rows;
  TablePrinter contention_table({"clients", "requests", "qps", "p50", "p99",
                                 "p99.9", "max", "shed", "best-effort"});
  {
    server::ServerOptions options;
    options.worker_threads = 2;
    options.queue_capacity = 1024;
    server::Server server(&tree, criterion.get(), options);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 1;
    }
    const SweepResult r = RunSweep(
        server.port(), queries, reporter.Scaled(32, 4),
        requests_per_client / 4, /*allow_retry=*/false);
    AddTableRow(contention_table, r);
    contention_rows.push_back(ResultRow(r));
    server.Stop();
  }
  std::printf("\n-- contention (2 permits, queue bound 1024) --\n");
  contention_table.Print();
  reporter.RawSweep("contention", contention_rows);

  // Sweep 4: admin-plane cost. The top-concurrency throughput point runs
  // twice against fresh servers — once bare, once with a live admin plane
  // being scraped (/metrics) every 100 ms plus its 100 ms gauge tick —
  // and the QPS delta is recorded. The claim under test: the admin plane
  // costs at most ~1% QPS.
  std::vector<std::string> admin_rows;
  double baseline_qps = 0.0, admin_qps = 0.0;
  uint64_t scrape_count = 0, scrape_bytes_total = 0;
  {
    const size_t top = concurrencies.back();
    server::ServerOptions options;
    options.worker_threads = 0;
    options.queue_capacity = 1024;
    {
      server::Server server(&tree, criterion.get(), options);
      const Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
        return 1;
      }
      baseline_qps = RunSweep(server.port(), queries, top,
                              requests_per_client, /*allow_retry=*/true)
                         .qps;
      server.Stop();
    }
    {
      server::Server server(&tree, criterion.get(), options);
      const Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
        return 1;
      }
      server::AdminOptions admin_options;
      admin_options.tick_interval_ms = 100;
      server::AdminServer::Sources sources;
      sources.queue_depth = [&server] { return server.QueueDepth(); };
      sources.requests_served = [&server] {
        return server.counters().requests_served.load();
      };
      server::AdminServer admin(std::move(admin_options), std::move(sources));
      const Status admin_started = admin.Start();
      if (!admin_started.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     admin_started.ToString().c_str());
        return 1;
      }
      std::atomic<bool> stop_scraper{false};
      std::atomic<uint64_t> scrapes{0};
      std::atomic<uint64_t> scrape_bytes{0};
      std::thread scraper([&] {
        while (!stop_scraper.load()) {
          Result<server::HttpResponse> scraped = server::AdminHttpGet(
              "127.0.0.1", admin.port(), "/metrics", /*timeout_ms=*/2000);
          if (scraped.ok() && scraped->status_code == 200) {
            scrapes.fetch_add(1);
            scrape_bytes.fetch_add(scraped->body.size());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
      admin_qps = RunSweep(server.port(), queries, top, requests_per_client,
                           /*allow_retry=*/true)
                      .qps;
      stop_scraper.store(true);
      scraper.join();
      scrape_count = scrapes.load();
      scrape_bytes_total = scrape_bytes.load();
      admin.Stop();
      server.Stop();
    }
    const double overhead_pct =
        baseline_qps > 0.0 ? 100.0 * (baseline_qps - admin_qps) / baseline_qps
                           : 0.0;
    admin_rows.push_back(
        "{\"concurrency\": " + std::to_string(top) +
        ", \"baseline_qps\": " + FormatDouble(baseline_qps) +
        ", \"admin_qps\": " + FormatDouble(admin_qps) +
        ", \"overhead_pct\": " + FormatDouble(overhead_pct, 3) +
        ", \"scrapes\": " + std::to_string(scrape_count) +
        ", \"scrape_bytes\": " + std::to_string(scrape_bytes_total) + "}");
    std::printf(
        "\n-- admin plane overhead (C=%zu, /metrics scraped every 100 ms) "
        "--\nbaseline %.0f qps -> with admin %.0f qps (%.2f%% delta, %llu "
        "scrapes, %llu bytes)\n",
        top, baseline_qps, admin_qps, overhead_pct,
        static_cast<unsigned long long>(scrape_count),
        static_cast<unsigned long long>(scrape_bytes_total));
  }
  reporter.RawSweep("admin overhead", admin_rows);

  std::printf(
      "\nExpected shape: QPS grows with client count until the cores\n"
      "saturate; p99 stays bounded (slow-client/IO waits are poll-capped);\n"
      "the overload row sheds a visible fraction with zero hard errors —\n"
      "admission control refuses work instead of queueing unboundedly;\n"
      "the contention row sheds nothing.\n");
  return reporter.Finish();
}

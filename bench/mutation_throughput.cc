// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Mutation-path benchmark for the mutable SS-tree: pure insert
// throughput, then closed-loop mixed workloads at 0% / 10% / 50% write
// ratios — reader threads pin epoch-protected views for every kNN while
// writers insert/remove through the serialized mutation path. Reports
// mutation and query QPS, query p50/p99, and the worst epoch lag
// observed (how far the slowest pinned reader trailed the writer).
//
// Emits bench/results/BENCH_mutation.json via --json-out; --smoke
// shrinks the workload for the tier-1 smoke test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/table_printer.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "query/mut_query.h"
#include "storage/epoch.h"

namespace {

using namespace hyperdom;

struct WorkerTally {
  std::vector<double> query_micros;
  uint64_t mutations = 0;
  uint64_t queries = 0;
  uint64_t mutation_errors = 0;
};

struct MixResult {
  double write_ratio = 0.0;
  uint64_t mutations = 0;
  uint64_t queries = 0;
  double mutation_qps = 0.0;
  double query_qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  uint64_t epoch_lag_max = 0;
};

// One closed-loop worker: per op, a mutation with probability
// `write_ratio` (alternating insert-heavy with occasional removes of its
// own rows), otherwise a kNN through a pinned view.
void WorkerLoop(MutableSsTree* tree, const DominanceCriterion* criterion,
                const std::vector<Hypersphere>& queries, size_t ops,
                double write_ratio, uint64_t seed, uint64_t id_base,
                std::atomic<uint64_t>* lag_max, WorkerTally* tally) {
  Rng rng(seed);
  KnnOptions options;
  options.k = 10;
  std::vector<uint64_t> mine;  // ids this worker inserted and still owns
  uint64_t next_id = id_base;
  for (size_t i = 0; i < ops; ++i) {
    const bool write =
        write_ratio > 0.0 &&
        rng.UniformU64(1'000'000) <
            static_cast<uint64_t>(write_ratio * 1'000'000.0);
    if (write) {
      Status applied;
      if (!mine.empty() && rng.UniformU64(4) == 0) {
        applied = tree->Remove(mine.back());
        if (applied.ok()) mine.pop_back();
      } else {
        applied = tree->Insert(
            Hypersphere({rng.Gaussian(1000.0, 250.0),
                         rng.Gaussian(1000.0, 250.0),
                         rng.Gaussian(1000.0, 250.0)},
                        10.0),
            next_id);
        if (applied.ok()) mine.push_back(next_id);
        ++next_id;
      }
      if (applied.ok()) {
        ++tally->mutations;
      } else {
        ++tally->mutation_errors;  // kConflict during a compaction build
      }
      uint64_t lag = EpochManager::Global().EpochLag();
      uint64_t seen = lag_max->load(std::memory_order_relaxed);
      while (lag > seen &&
             !lag_max->compare_exchange_weak(seen, lag,
                                             std::memory_order_relaxed)) {
      }
    } else {
      const auto start = std::chrono::steady_clock::now();
      const auto answer = MutableKnn(*tree, *criterion, options,
                                     queries[(seed + i) % queries.size()]);
      const auto stop = std::chrono::steady_clock::now();
      (void)answer;
      tally->query_micros.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
      ++tally->queries;
    }
  }
}

MixResult RunMix(MutableSsTree* tree, const DominanceCriterion* criterion,
                 const std::vector<Hypersphere>& queries, size_t threads,
                 size_t ops_per_thread, double write_ratio,
                 uint64_t id_base) {
  std::vector<WorkerTally> tallies(threads);
  std::atomic<uint64_t> lag_max{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(WorkerLoop, tree, criterion, std::cref(queries),
                      ops_per_thread, write_ratio, 0xB0B0 + 131 * t,
                      id_base + (t << 32), &lag_max, &tallies[t]);
  }
  for (auto& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  MixResult r;
  r.write_ratio = write_ratio;
  std::vector<double> latencies;
  for (auto& tally : tallies) {
    r.mutations += tally.mutations;
    r.queries += tally.queries;
    latencies.insert(latencies.end(), tally.query_micros.begin(),
                     tally.query_micros.end());
  }
  std::sort(latencies.begin(), latencies.end());
  r.p50_micros = bench::Percentile(latencies, 0.50);
  r.p99_micros = bench::Percentile(latencies, 0.99);
  r.mutation_qps =
      wall > 0.0 ? static_cast<double>(r.mutations) / wall : 0.0;
  r.query_qps = wall > 0.0 ? static_cast<double>(r.queries) / wall : 0.0;
  r.epoch_lag_max = lag_max.load();
  return r;
}

std::string ResultRow(const MixResult& r) {
  return "{\"write_ratio\": " + FormatDouble(r.write_ratio, 2) +
         ", \"mutations\": " + std::to_string(r.mutations) +
         ", \"queries\": " + std::to_string(r.queries) +
         ", \"mutation_qps\": " + FormatDouble(r.mutation_qps) +
         ", \"query_qps\": " + FormatDouble(r.query_qps) +
         ", \"query_p50_micros\": " + FormatDouble(r.p50_micros) +
         ", \"query_p99_micros\": " + FormatDouble(r.p99_micros) +
         ", \"epoch_lag_max\": " + std::to_string(r.epoch_lag_max) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Mutable store throughput",
      "live inserts/removes vs epoch-pinned kNN, d = 3, k = 10, Hyperbola");
  bench::Reporter reporter(argc, argv, "mutation");

  SyntheticSpec spec;
  spec.n = reporter.Scaled(50'000, 2'000);
  spec.dim = 3;
  spec.radius_mean = 10.0;
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 21'000;
  const auto data = GenerateSynthetic(spec);
  const auto queries =
      MakeKnnQueries(data, reporter.Scaled(1'000, 100), 21'100);
  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);

  // Sweep 1: pure insert throughput into an empty store (auto-compaction
  // on, so the figure includes periodic rewrites).
  const size_t insert_count = reporter.Scaled(50'000, 2'000);
  double insert_qps = 0.0;
  {
    MutableSsTree store(spec.dim);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < insert_count; ++i) {
      const Status st = store.Insert(data[i % data.size()], i);
      (void)st;  // unique ids over well-formed data
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    insert_qps =
        wall > 0.0 ? static_cast<double>(insert_count) / wall : 0.0;
    std::printf("\n-- pure insert: %zu rows, %.0f inserts/s --\n",
                insert_count, insert_qps);
  }
  reporter.RawSweep(
      "pure insert",
      {std::string("{\"inserts\": ") + std::to_string(insert_count) +
       ", \"insert_qps\": " + FormatDouble(insert_qps) + "}"});

  // Sweep 2: mixed read/write at 0% / 10% / 50% writes over a seeded
  // store, all threads closed-loop.
  const size_t threads = reporter.Scaled(4, 2);
  const size_t ops_per_thread = reporter.Scaled(10'000, 500);
  std::vector<std::string> rows;
  TablePrinter table({"write ratio", "mutations", "queries", "mut qps",
                      "query qps", "p50", "p99", "max epoch lag"});
  for (const double ratio : {0.0, 0.1, 0.5}) {
    MutableSsTree store(spec.dim);
    std::vector<uint64_t> ids(data.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    const Status built = store.Build(data, ids);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.ToString().c_str());
      return 1;
    }
    const MixResult r = RunMix(&store, criterion.get(), queries, threads,
                               ops_per_thread, ratio,
                               /*id_base=*/1'000'000'000ull);
    rows.push_back(ResultRow(r));
    char p50[32], p99[32], mq[32], qq[32];
    std::snprintf(p50, sizeof(p50), "%.1f us", r.p50_micros);
    std::snprintf(p99, sizeof(p99), "%.1f us", r.p99_micros);
    std::snprintf(mq, sizeof(mq), "%.0f", r.mutation_qps);
    std::snprintf(qq, sizeof(qq), "%.0f", r.query_qps);
    table.AddRow({FormatDouble(ratio, 2), std::to_string(r.mutations),
                  std::to_string(r.queries), mq, qq, p50, p99,
                  std::to_string(r.epoch_lag_max)});
  }
  std::printf("\n-- mixed read/write (%zu closed-loop threads) --\n",
              threads);
  table.Print();
  reporter.RawSweep("mixed read/write", rows);

  std::printf(
      "\nExpected shape: query p50 moves only modestly from 0%% to 50%%\n"
      "writes (readers never block on the writer; they pin a version and\n"
      "traverse immutable state), and the max epoch lag stays small —\n"
      "retired versions are reclaimed as soon as pinned readers drain.\n");
  return reporter.Finish();
}

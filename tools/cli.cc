// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>

#include <cmath>

#include "common/fault.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "dominance/certified.h"
#include "dominance/instrumented.h"
#include "dominance/numeric_oracle.h"
#include "data/generator.h"
#include "dominance/growing.h"
#include "eval/experiment.h"
#include "exec/batch.h"
#include "eval/table_printer.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/inverse_ranking.h"
#include "query/knn.h"
#include "query/range.h"
#include "server/admin.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_store.h"

namespace hyperdom {
namespace cli {

namespace {

constexpr char kUsage[] =
    "usage: hyperdom_cli COMMAND [--flag=value ...]\n"
    "commands:\n"
    "  generate    --out=FILE --n=N --dim=D [--mu=10] [--centers=gaussian|"
    "uniform]\n"
    "              [--radii=gaussian|uniform] [--seed=S]\n"
    "  dominate    --sa=X,..;R --sb=X,..;R --sq=X,..;R [--criterion=NAME|"
    "all]\n"
    "  knn         --data=FILE --query=X,..;R [--k=10] [--criterion=NAME]\n"
    "              [--strategy=hs|df] [--certified=1] [--deadline-ms=T]\n"
    "              [--node-budget=N] [--queries=N --seed=S --threads=T]\n"
    "  rank        --data=FILE --target=ID --query=X,..;R "
    "[--criterion=NAME]\n"
    "  range       --data=FILE --query=X,..;R --range=D\n"
    "  expiry      --sa=X,..;R --sb=X,..;R --sq=X,..;R --va=V --vb=V "
    "--vq=V\n"
    "              [--horizon=100]\n"
    "  experiment  --data=FILE [--queries=10000] [--repeats=3] [--seed=S]\n"
    "  selfcheck   [--scenes=20000] [--dim=4] [--mu=10] [--seed=S]\n"
    "              [--certified=1]\n"
    "  snapshot    --op=save|load|verify --file=SNAP [--data=FILE]\n"
    "  serve       --data=FILE [--port=0] [--host=127.0.0.1] [--threads=0]\n"
    "              [--queue-capacity=128] [--max-connections=256]\n"
    "              [--io-timeout-ms=5000] [--criterion=NAME] [--mutable=1]\n"
    "              [--admin-port=P] [--slow-query-ms=T] [--shards=K]\n"
    "              [--shard-policy=hash|kmeans]\n"
    "  query       --server=HOST:PORT --query=X,..;R [--k=10]\n"
    "              [--strategy=hs|df] [--budget-ms=T] [--node-budget=N]\n"
    "              [--timeout-ms=10000] [--attempts=4]\n"
    "  insert      --server=HOST:PORT --id=N --sphere=X,..;R\n"
    "              [--budget-ms=T] [--timeout-ms=10000] [--attempts=4]\n"
    "  remove      --server=HOST:PORT --id=N [--budget-ms=T]\n"
    "              [--timeout-ms=10000] [--attempts=4]\n"
    "  metrics     (prints the catalogue of process-wide metric names)\n"
    "criteria: minmax, mbr, gp, trigonometric, hyperbola, oracle, certified\n"
    "--certified=1 routes dominance through the certified engine and reports\n"
    "uncertainty rates and escalation-tier counters.\n"
    "global flags, taken by every command: --fault-rate=P or\n"
    "--fault-site=SITE [--fault-nth=N] arm the fault-injection registry\n"
    "(seeded by --seed) before the command runs; --seed, --metrics-out,\n"
    "--trace-out, --log-level and --log-out. Any other flag that its command\n"
    "does not list above is a usage error (exit 2).\n"
    "knn --deadline-ms and knn/query --node-budget bound a query, degrading\n"
    "gracefully to a flagged best-effort answer.\n"
    "observability: --metrics-out=FILE dumps every metric after the command\n"
    "(.json extension selects the JSON export, anything else Prometheus\n"
    "text); --trace-out=FILE records spans and writes a Chrome trace_event\n"
    "JSON file loadable in chrome://tracing or https://ui.perfetto.dev.\n"
    "logging: --log-level=debug|info|warn|error|off sets the structured\n"
    "JSON-lines logger threshold (default warn); --log-out=FILE appends the\n"
    "lines to FILE instead of stderr.\n"
    "serve --admin-port=P exposes the admin plane (GET /metrics,\n"
    "/metrics.json, /healthz, /readyz, /statusz, /tracez) on a second\n"
    "port (P=0 picks one, printed at startup); --slow-query-ms=T emits one\n"
    "hyperdom-slowlog-v1 JSON record per kNN at or above T milliseconds.\n"
    "knn --queries=N replaces the single --query with a seeded workload of\n"
    "N random queries drawn from the dataset, reporting aggregate stats;\n"
    "--threads=T shards the workload across T workers (0 = all cores, at\n"
    "most 1024 and one per query) with bit-identical results at any\n"
    "thread count.\n"
    "serve --mutable=1 accepts insert/remove frames (ids seeded as row\n"
    "numbers); read-only servers answer them with kNotSupported.\n"
    "serve --shards=K partitions the store into K shards queried scatter-\n"
    "gather with bit-identical answers (--shard-policy picks hash or\n"
    "kmeans placement); incompatible with --mutable=1. serve --threads and\n"
    "--shards are at most 1024.\n"
    "exit codes: 0 success, 1 command error, 2 usage error, 3 server\n"
    "overloaded, 4 deadline exceeded, 5 protocol error, 6 mutation\n"
    "conflict (store frozen or compacting — safe to retry later).\n";

constexpr uint64_t kNoMax = std::numeric_limits<uint64_t>::max();
// The largest millisecond count whose microsecond value fits a uint64_t.
constexpr uint64_t kMaxMillis = kNoMax / 1000;
// The largest --threads (knn, serve) and --shards (serve): each worker is
// an OS thread and each shard a tree of its own, so a larger count is a
// mistake, not a configuration.
constexpr uint64_t kMaxWorkers = 1024;

// Parses --key as an unsigned integer in [min, max], the range the flag's
// destination accepts: a value outside it is refused, never narrowed.
// `fallback` stands in for an absent flag that is not required.
Result<uint64_t> RequireUint(const ParsedArgs& args, const std::string& key,
                             uint64_t fallback, bool required,
                             uint64_t min = 0, uint64_t max = kNoMax) {
  const std::string raw = args.GetFlag(key);
  if (raw.empty()) {
    if (required) return Status::InvalidArgument("missing --" + key);
    return fallback;
  }
  uint64_t value = 0;
  if (!ParseUint64(raw, &value)) {
    return Status::InvalidArgument("bad --" + key + ": '" + raw + "'");
  }
  if (value < min || value > max) {
    const std::string want =
        max == kNoMax ? ">= " + std::to_string(min)
                      : std::to_string(min) + ".." + std::to_string(max);
    return Status::InvalidArgument("bad --" + key + ": '" + raw + "' (want " +
                                   want + ")");
  }
  return value;
}

Result<std::vector<Hypersphere>> LoadData(const ParsedArgs& args) {
  const std::string path = args.GetFlag("data");
  if (path.empty()) return Status::InvalidArgument("missing --data");
  return LoadSpheresCsv(path);
}

// Builds a query deadline from the optional --deadline-ms / --node-budget
// flags; unbounded when neither is given.
Result<Deadline> ParseDeadline(const ParsedArgs& args) {
  Deadline deadline;
  const std::string ms = args.GetFlag("deadline-ms");
  if (!ms.empty()) {
    double value = 0.0;
    if (!ParseDouble(ms, &value) || value <= 0.0) {
      return Status::InvalidArgument("bad --deadline-ms: '" + ms + "'");
    }
    deadline = Deadline::AfterDuration(std::chrono::nanoseconds(
        static_cast<int64_t>(value * 1e6)));
  }
  auto budget = RequireUint(args, "node-budget", 0, /*required=*/false);
  if (!budget.ok()) return budget.status();
  if (*budget > 0) deadline.SetNodeBudget(*budget);
  return deadline;
}

Status CmdGenerate(const ParsedArgs& args, std::ostream& out) {
  const std::string path = args.GetFlag("out");
  if (path.empty()) return Status::InvalidArgument("missing --out");
  SyntheticSpec spec;
  auto n = RequireUint(args, "n", 0, /*required=*/true);
  if (!n.ok()) return n.status();
  auto dim = RequireUint(args, "dim", 0, /*required=*/true);
  if (!dim.ok()) return dim.status();
  auto seed = RequireUint(args, "seed", spec.seed, /*required=*/false);
  if (!seed.ok()) return seed.status();
  spec.n = *n;
  spec.dim = *dim;
  spec.seed = *seed;
  if (spec.n == 0 || spec.dim == 0) {
    return Status::InvalidArgument("--n and --dim must be positive");
  }
  const std::string mu = args.GetFlag("mu", "10");
  if (!ParseDouble(mu, &spec.radius_mean) || spec.radius_mean < 0.0) {
    return Status::InvalidArgument("bad --mu: '" + mu + "'");
  }
  auto parse_dist = [](const std::string& v, Distribution* dist) {
    if (v == "gaussian") {
      *dist = Distribution::kGaussian;
    } else if (v == "uniform") {
      *dist = Distribution::kUniform;
    } else {
      return false;
    }
    return true;
  };
  if (!parse_dist(args.GetFlag("centers", "gaussian"),
                  &spec.center_distribution)) {
    return Status::InvalidArgument("bad --centers (gaussian|uniform)");
  }
  if (!parse_dist(args.GetFlag("radii", "gaussian"),
                  &spec.radius_distribution)) {
    return Status::InvalidArgument("bad --radii (gaussian|uniform)");
  }
  const auto data = GenerateSynthetic(spec);
  HYPERDOM_RETURN_NOT_OK(SaveSpheresCsv(path, data));
  out << "wrote " << data.size() << " spheres (" << spec.dim << "-d) to "
      << path << "\n";
  return Status::OK();
}

Status CmdDominate(const ParsedArgs& args, std::ostream& out) {
  auto sa = ParseSphere(args.GetFlag("sa"));
  if (!sa.ok()) return Status::InvalidArgument("--sa: " + sa.status().message());
  auto sb = ParseSphere(args.GetFlag("sb"));
  if (!sb.ok()) return Status::InvalidArgument("--sb: " + sb.status().message());
  auto sq = ParseSphere(args.GetFlag("sq"));
  if (!sq.ok()) return Status::InvalidArgument("--sq: " + sq.status().message());
  if (sa->dim() != sb->dim() || sa->dim() != sq->dim()) {
    return Status::InvalidArgument("spheres must share one dimensionality");
  }

  const std::string name = args.GetFlag("criterion", "all");
  std::vector<CriterionKind> kinds;
  if (name == "all") {
    kinds = PaperCriteria();
    kinds.push_back(CriterionKind::kCertified);
  } else {
    auto kind = ParseCriterion(name);
    if (!kind.ok()) return kind.status();
    kinds.push_back(*kind);
  }
  TablePrinter table({"criterion", "Dominates(Sa,Sb,Sq)"});
  for (CriterionKind kind : kinds) {
    const auto criterion = MakeCriterion(kind);
    std::string cell;
    if (kind == CriterionKind::kCertified) {
      // The certified engine answers with a three-valued verdict plus the
      // escalation tier that resolved it.
      const CertifiedDominance engine;
      CertifiedTier tier = CertifiedTier::kUnresolved;
      const Verdict verdict = engine.Decide(*sa, *sb, *sq, &tier);
      cell = std::string(VerdictName(verdict));
      if (verdict != Verdict::kUncertain) {
        cell += " (tier " + std::to_string(static_cast<int>(tier)) + ")";
      }
    } else {
      cell = criterion->Dominates(*sa, *sb, *sq) ? "true" : "false";
    }
    table.AddRow({std::string(criterion->name()), cell});
  }
  out << table.Render();
  return Status::OK();
}

Status CmdKnn(const ParsedArgs& args, std::ostream& out) {
  // Every flag is checked before the dataset is loaded, so a bad value
  // fails fast.
  auto workload_size = RequireUint(args, "queries", 0, /*required=*/false);
  if (!workload_size.ok()) return workload_size.status();
  auto k = RequireUint(args, "k", 10, /*required=*/false, /*min=*/1);
  if (!k.ok()) return k.status();
  const bool certified = args.GetFlag("certified", "0") != "0";
  auto kind = ParseCriterion(
      args.GetFlag("criterion", certified ? "certified" : "hyperbola"));
  if (!kind.ok()) return kind.status();
  if (certified && *kind != CriterionKind::kCertified) {
    return Status::InvalidArgument(
        "--certified=1 conflicts with --criterion=" +
        args.GetFlag("criterion"));
  }
  const std::string strategy = args.GetFlag("strategy", "hs");
  if (strategy != "hs" && strategy != "df") {
    return Status::InvalidArgument("bad --strategy (hs|df)");
  }
  auto deadline = ParseDeadline(args);
  if (!deadline.ok()) return deadline.status();
  auto seed = RequireUint(args, "seed", 0xC8ECull, /*required=*/false);
  if (!seed.ok()) return seed.status();
  auto threads = RequireUint(args, "threads", 1, /*required=*/false, 0,
                             kMaxWorkers);
  if (!threads.ok()) return threads.status();
  auto data = LoadData(args);
  if (!data.ok()) return data.status();
  if (data->empty()) return Status::InvalidArgument("dataset is empty");

  SsTree tree(data->front().dim());
  HYPERDOM_RETURN_NOT_OK(tree.BulkLoad(*data));
  // Route dominance through the instrumented wrapper so the per-criterion
  // verdict counters and decide latencies show up in --metrics-out.
  const auto criterion = MakeInstrumentedCriterion(*kind);
  KnnOptions options;
  options.k = *k;
  options.strategy = strategy == "hs" ? SearchStrategy::kBestFirst
                                      : SearchStrategy::kDepthFirst;
  options.deadline = *deadline;
  KnnSearcher searcher(criterion.get(), options);

  if (*workload_size > 0) {
    // Workload mode: N seeded queries drawn from the dataset's own
    // distribution, reported in aggregate. This is the path the
    // observability exports are meant to summarize.
    const std::vector<Hypersphere> queries =
        MakeKnnQueries(*data, *workload_size, *seed);
    BatchOptions exec;
    exec.threads = static_cast<size_t>(*threads);
    const BatchKnnResult batch =
        BatchKnn(tree, queries, *criterion, options, exec);
    const KnnStats& totals = batch.stats.totals;
    uint64_t answers = 0;
    for (const KnnResult& one : batch.results) answers += one.answers.size();
    const double nanos = static_cast<double>(batch.stats.wall_nanos);
    out << queries.size() << " top-" << *k << " queries (criterion "
        << criterion->name() << "): "
        << FormatDuration(nanos / static_cast<double>(queries.size()))
        << "/query\n"
        << "  " << totals.nodes_visited << " nodes visited, "
        << totals.nodes_pruned << " pruned, " << totals.entries_accessed
        << " entries accessed, " << totals.dominance_checks
        << " dominance checks\n"
        << "  " << answers << " answer entries across the workload";
    if (batch.stats.best_effort > 0) {
      out << "; " << batch.stats.best_effort << " best-effort answers ("
          << totals.nodes_deadline_skipped << " subtrees deadline-skipped)";
    }
    out << "\n";
    if (batch.stats.threads > 1) {
      out << "  " << batch.stats.threads
          << " worker threads (results are bit-identical to --threads=1)\n";
    }
    return Status::OK();
  }

  auto query = ParseSphere(args.GetFlag("query"));
  if (!query.ok()) {
    return Status::InvalidArgument("--query: " + query.status().message());
  }
  if (query->dim() != data->front().dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  const KnnResult result = searcher.Search(tree, *query);

  out << result.answers.size() << " possible top-" << *k
      << " objects (criterion " << criterion->name() << ", "
      << result.stats.dominance_checks << " dominance checks)\n";
  if (result.completeness == Completeness::kBestEffort) {
    out << "deadline expired: best-effort answer ("
        << result.stats.nodes_visited << " nodes visited, "
        << result.stats.nodes_deadline_skipped
        << " subtrees skipped; every entry below is certainly in the exact"
           " answer)\n";
  }
  if (certified) {
    const uint64_t checks = result.stats.dominance_checks;
    const double rate =
        checks == 0 ? 0.0
                    : 100.0 * static_cast<double>(
                                  result.stats.uncertain_verdicts) /
                          static_cast<double>(checks);
    out << "certified: " << result.stats.uncertain_verdicts
        << " uncertain verdicts (" << FormatDouble(rate, 4)
        << "% of checks; uncertain entries are kept, never pruned)\n";
  }
  size_t shown = 0;
  for (const auto& entry : result.answers) {
    out << "  #" << entry.id << "  " << entry.sphere.ToString()
        << "  maxdist=" << FormatDouble(MaxDist(entry.sphere, *query)) << "\n";
    if (++shown >= 20 && result.answers.size() > 20) {
      out << "  ... (" << result.answers.size() - shown << " more)\n";
      break;
    }
  }
  return Status::OK();
}

Status CmdRank(const ParsedArgs& args, std::ostream& out) {
  auto data = LoadData(args);
  if (!data.ok()) return data.status();
  auto query = ParseSphere(args.GetFlag("query"));
  if (!query.ok()) {
    return Status::InvalidArgument("--query: " + query.status().message());
  }
  auto target = RequireUint(args, "target", 0, /*required=*/true);
  if (!target.ok()) return target.status();
  if (*target >= data->size()) {
    return Status::OutOfRange("--target beyond dataset size");
  }
  if (data->front().dim() != query->dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  auto kind = ParseCriterion(args.GetFlag("criterion", "hyperbola"));
  if (!kind.ok()) return kind.status();
  const auto criterion = MakeCriterion(*kind);
  const RankInterval interval =
      InverseRanking(*data, *target, *query, *criterion);
  out << "object #" << *target << " can rank between " << interval.best_rank
      << " and " << interval.worst_rank << " of " << data->size() << " ("
      << interval.certainly_closer << " certainly closer, "
      << interval.certainly_farther << " certainly farther)\n";
  return Status::OK();
}

Status CmdRange(const ParsedArgs& args, std::ostream& out) {
  auto data = LoadData(args);
  if (!data.ok()) return data.status();
  auto query = ParseSphere(args.GetFlag("query"));
  if (!query.ok()) {
    return Status::InvalidArgument("--query: " + query.status().message());
  }
  if (data->empty() || data->front().dim() != query->dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  double range = -1.0;
  if (!ParseDouble(args.GetFlag("range"), &range) || range < 0.0) {
    return Status::InvalidArgument("missing or bad --range");
  }
  SsTree tree(data->front().dim());
  HYPERDOM_RETURN_NOT_OK(tree.BulkLoad(*data));
  const RangeResult result = RangeSearch(tree, *query, range);
  out << result.certain.size() << " objects certainly within "
      << FormatDouble(range) << ", " << result.possible.size()
      << " possibly within (" << result.stats.entries_accessed
      << " entries accessed, " << result.stats.nodes_pruned
      << " subtrees pruned)\n";
  return Status::OK();
}

Status CmdExpiry(const ParsedArgs& args, std::ostream& out) {
  auto sa = ParseSphere(args.GetFlag("sa"));
  if (!sa.ok()) return Status::InvalidArgument("--sa: " + sa.status().message());
  auto sb = ParseSphere(args.GetFlag("sb"));
  if (!sb.ok()) return Status::InvalidArgument("--sb: " + sb.status().message());
  auto sq = ParseSphere(args.GetFlag("sq"));
  if (!sq.ok()) return Status::InvalidArgument("--sq: " + sq.status().message());
  if (sa->dim() != sb->dim() || sa->dim() != sq->dim()) {
    return Status::InvalidArgument("spheres must share one dimensionality");
  }
  double va = 0.0, vb = 0.0, vq = 0.0, horizon = 100.0;
  if (!ParseDouble(args.GetFlag("va", "0"), &va) || va < 0.0 ||
      !ParseDouble(args.GetFlag("vb", "0"), &vb) || vb < 0.0 ||
      !ParseDouble(args.GetFlag("vq", "0"), &vq) || vq < 0.0) {
    return Status::InvalidArgument("bad growth rates (must be >= 0)");
  }
  if (!ParseDouble(args.GetFlag("horizon", "100"), &horizon) ||
      horizon < 0.0) {
    return Status::InvalidArgument("bad --horizon");
  }
  const GrowingSphere ga{*sa, va};
  const GrowingSphere gb{*sb, vb};
  const GrowingSphere gq{*sq, vq};
  if (!DominatesAtTime(ga, gb, gq, 0.0)) {
    out << "Sa does not dominate Sb at t = 0\n";
    return Status::OK();
  }
  const double expiry = DominanceExpiry(ga, gb, gq, horizon);
  if (expiry >= horizon) {
    out << "dominance holds through the whole horizon ("
        << FormatDouble(horizon) << ")\n";
  } else {
    out << "dominance expires at t = " << FormatDouble(expiry) << "\n";
  }
  return Status::OK();
}

Status CmdSelfCheck(const ParsedArgs& args, std::ostream& out) {
  auto scenes =
      RequireUint(args, "scenes", 20'000, /*required=*/false, /*min=*/1);
  if (!scenes.ok()) return scenes.status();
  auto dim = RequireUint(args, "dim", 4, /*required=*/false, /*min=*/1);
  if (!dim.ok()) return dim.status();
  auto seed = RequireUint(args, "seed", 0xC8ECull, /*required=*/false);
  if (!seed.ok()) return seed.status();
  double mu = 10.0;
  if (!ParseDouble(args.GetFlag("mu", "10"), &mu) || mu < 0.0) {
    return Status::InvalidArgument("bad --mu");
  }
  const bool certified = args.GetFlag("certified", "0") != "0";

  const auto oracle = MakeCriterion(CriterionKind::kNumericOracle);
  struct Check {
    std::unique_ptr<DominanceCriterion> criterion;
    uint64_t false_positives = 0;
    uint64_t false_negatives = 0;
  };
  std::vector<Check> checks;
  for (CriterionKind kind : PaperCriteria()) {
    checks.push_back(Check{MakeCriterion(kind)});
  }
  const CertifiedDominance engine;
  uint64_t certified_wrong = 0;

  Rng rng(*seed);
  uint64_t borderline = 0;
  for (uint64_t i = 0; i < *scenes; ++i) {
    auto sphere = [&]() {
      Point c(*dim);
      for (auto& v : c) v = rng.Gaussian(100.0, 25.0);
      return Hypersphere(std::move(c),
                         std::max(0.0, rng.Gaussian(mu, mu / 4.0)));
    };
    const Hypersphere sa = sphere();
    const Hypersphere sb = sphere();
    const Hypersphere sq = sphere();
    const double margin =
        MinDistanceDifference(sa, sb, sq) - (sa.radius() + sb.radius());
    if (std::abs(margin) < 1e-6) {
      ++borderline;
      continue;  // too close to the decision boundary to compare exactly
    }
    const bool truth = !Overlaps(sa, sb) && margin > 0.0;
    for (auto& check : checks) {
      const bool predicted = check.criterion->Dominates(sa, sb, sq);
      if (predicted && !truth) ++check.false_positives;
      if (!predicted && truth) ++check.false_negatives;
    }
    if (certified) {
      const Verdict verdict = engine.Decide(sa, sb, sq);
      if (verdict == Verdict::kDominates && !truth) ++certified_wrong;
      if (verdict == Verdict::kNotDominates && truth) ++certified_wrong;
    }
  }

  TablePrinter table({"criterion", "claims", "false pos", "false neg",
                      "verdict"});
  bool all_good = true;
  for (const auto& check : checks) {
    const bool correct_ok =
        !check.criterion->is_correct() || check.false_positives == 0;
    const bool sound_ok =
        !check.criterion->is_sound() || check.false_negatives == 0;
    if (!correct_ok || !sound_ok) all_good = false;
    std::string claims;
    if (check.criterion->is_correct()) claims += "correct ";
    if (check.criterion->is_sound()) claims += "sound";
    table.AddRow({std::string(check.criterion->name()),
                  claims.empty() ? "-" : claims,
                  std::to_string(check.false_positives),
                  std::to_string(check.false_negatives),
                  correct_ok && sound_ok ? "OK" : "VIOLATED"});
  }
  out << table.Render();
  out << "(" << borderline << " borderline scenes skipped)\n";
  if (certified) {
    const CertifiedStats stats = engine.stats();
    out << "certified engine: " << stats.calls << " calls, "
        << stats.uncertain << " uncertain ("
        << FormatDouble(100.0 * stats.UncertainRate(), 4) << "%)\n"
        << "  resolved by tier: quartic=" << stats.resolved_quartic
        << " parametric=" << stats.resolved_parametric
        << " long-double=" << stats.resolved_long_double
        << " oracle=" << stats.resolved_oracle << "\n";
    if (certified_wrong > 0) {
      return Status::Internal(
          std::to_string(certified_wrong) +
          " decisive certified verdicts disagree with the oracle");
    }
    out << "no decisive certified verdict disagrees with the oracle\n";
  }
  if (!all_good) {
    return Status::Internal("criterion contract violated; see table");
  }
  out << "all criterion contracts hold on " << *scenes << " scenes\n";
  return Status::OK();
}

Status CmdSnapshot(const ParsedArgs& args, std::ostream& out) {
  const std::string op = args.GetFlag("op");
  if (op != "save" && op != "load" && op != "verify") {
    return Status::InvalidArgument("missing or bad --op (save|load|verify)");
  }
  const std::string file = args.GetFlag("file");
  if (file.empty()) return Status::InvalidArgument("missing --file");

  if (op == "verify") {
    auto info = VerifySnapshot(file);
    if (!info.ok()) return info.status();
    out << "snapshot " << file << ": kind=" << SnapshotKindName(info->kind)
        << " version=" << info->version << " payload=" << info->payload_size
        << " bytes checksum=" << (info->crc_ok ? "OK" : "MISMATCH") << "\n";
    if (!info->crc_ok) {
      return Status::Corruption("snapshot checksum mismatch: " + file);
    }
    return Status::OK();
  }

  if (op == "save") {
    auto data = LoadData(args);
    if (!data.ok()) return data.status();
    if (data->empty()) return Status::InvalidArgument("dataset is empty");
    SsTree tree(data->front().dim());
    HYPERDOM_RETURN_NOT_OK(tree.BulkLoadStr(*data));
    HYPERDOM_RETURN_NOT_OK(SaveSnapshot(tree, file));
    out << "saved ss-tree snapshot of " << data->size() << " spheres to "
        << file << "\n";
    return Status::OK();
  }

  // op == "load": with --data, fall back to a rebuild when the snapshot is
  // missing, corrupt or retired; without it, a clean load is the only
  // option.
  SsTree tree(1);
  SnapshotLoadOutcome outcome = SnapshotLoadOutcome::kLoaded;
  Status load_error;
  if (!args.GetFlag("data").empty()) {
    auto data = LoadData(args);
    if (!data.ok()) return data.status();
    HYPERDOM_RETURN_NOT_OK(
        LoadSnapshotOrRebuild(file, *data, &tree, &outcome, &load_error));
  } else {
    HYPERDOM_RETURN_NOT_OK(LoadSnapshot(file, &tree));
  }
  if (outcome == SnapshotLoadOutcome::kRebuilt) {
    out << "snapshot unusable (" << load_error.ToString()
        << "); rebuilt ss-tree from --data (" << tree.size() << " spheres)\n";
  } else {
    out << "loaded ss-tree snapshot: " << tree.size() << " spheres\n";
  }
  return Status::OK();
}

Status CmdExperiment(const ParsedArgs& args, std::ostream& out) {
  DominanceExperimentConfig config;
  auto queries = RequireUint(args, "queries", config.workload_size,
                             /*required=*/false);
  if (!queries.ok()) return queries.status();
  auto repeats =
      RequireUint(args, "repeats", 3, /*required=*/false, /*min=*/1, INT_MAX);
  if (!repeats.ok()) return repeats.status();
  auto seed = RequireUint(args, "seed", config.seed, /*required=*/false);
  if (!seed.ok()) return seed.status();
  config.workload_size = *queries;
  config.repeats = static_cast<int>(*repeats);
  config.seed = *seed;
  auto data = LoadData(args);
  if (!data.ok()) return data.status();
  if (data->size() < 3) {
    return Status::InvalidArgument("need at least 3 objects");
  }

  TablePrinter table({"criterion", "time/query", "precision", "recall"});
  for (const auto& row : RunDominanceExperiment(*data, config)) {
    table.AddRow({row.criterion, FormatDuration(row.nanos_per_query),
                  FormatDouble(row.precision_pct, 4) + "%",
                  FormatDouble(row.recall_pct, 4) + "%"});
  }
  out << table.Render();
  return Status::OK();
}

// SIGTERM/SIGINT land here while `serve` runs; the main thread polls the
// flag and drains gracefully. Async-signal-safe: one relaxed store.
std::atomic<bool> g_serve_shutdown{false};

extern "C" void HandleServeSignal(int /*signum*/) {
  g_serve_shutdown.store(true, std::memory_order_relaxed);
}

Status CmdServe(const ParsedArgs& args, std::ostream& out) {
  // Every flag is checked before the dataset is loaded, so a bad value
  // fails fast.
  auto kind = ParseCriterion(args.GetFlag("criterion", "hyperbola"));
  if (!kind.ok()) return kind.status();
  auto port = RequireUint(args, "port", 0, /*required=*/false, 0, 65535);
  if (!port.ok()) return port.status();
  auto threads =
      RequireUint(args, "threads", 0, /*required=*/false, 0, kMaxWorkers);
  if (!threads.ok()) return threads.status();
  auto queue_capacity =
      RequireUint(args, "queue-capacity", 128, /*required=*/false, /*min=*/1);
  if (!queue_capacity.ok()) return queue_capacity.status();
  auto max_conns = RequireUint(args, "max-connections", 256,
                               /*required=*/false);
  if (!max_conns.ok()) return max_conns.status();
  auto io_timeout = RequireUint(args, "io-timeout-ms", 5000,
                                /*required=*/false, /*min=*/1, INT_MAX);
  if (!io_timeout.ok()) return io_timeout.status();
  // --admin-port present (even as 0 = ephemeral) switches the admin
  // plane on; absent leaves it off.
  const bool admin_enabled = !args.GetFlag("admin-port").empty();
  auto admin_port =
      RequireUint(args, "admin-port", 0, /*required=*/false, 0, 65535);
  if (!admin_port.ok()) return admin_port.status();
  auto slow_query_ms = RequireUint(args, "slow-query-ms", 0,
                                   /*required=*/false, 0, kMaxMillis);
  if (!slow_query_ms.ok()) return slow_query_ms.status();

  const bool mutable_mode = args.GetFlag("mutable") == "1";
  auto shards =
      RequireUint(args, "shards", 0, /*required=*/false, 0, kMaxWorkers);
  if (!shards.ok()) return shards.status();
  const bool sharded_mode = *shards > 0;
  shard::ShardPolicy shard_policy = shard::ShardPolicy::kHash;
  const std::string policy_name = args.GetFlag("shard-policy", "hash");
  if (!shard::ParseShardPolicy(policy_name, &shard_policy)) {
    return Status::InvalidArgument("bad --shard-policy (want hash|kmeans): '" +
                                   policy_name + "'");
  }
  if (sharded_mode && mutable_mode) {
    return Status::InvalidArgument(
        "--shards and --mutable=1 are mutually exclusive (sharded stores "
        "are immutable)");
  }
  auto data = LoadData(args);
  if (!data.ok()) return data.status();
  if (data->empty()) return Status::InvalidArgument("dataset is empty");
  const auto criterion = MakeInstrumentedCriterion(*kind);

  server::ServerOptions options;
  options.host = args.GetFlag("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(*port);
  options.worker_threads = static_cast<size_t>(*threads);
  options.queue_capacity = static_cast<size_t>(*queue_capacity);
  options.max_connections = static_cast<size_t>(*max_conns);
  options.io_timeout_ms = static_cast<int>(*io_timeout);
  options.slow_query_micros = *slow_query_ms * 1000;

  // --mutable=1 serves a MutableSsTree (accepting insert/remove frames,
  // ids seeded as the dataset's row numbers); otherwise the server is
  // read-only and answers mutation frames with kNotSupported.
  std::optional<SsTree> tree;
  std::optional<MutableSsTree> mutable_tree;
  std::optional<shard::ShardedStore> sharded_store;
  // Declared before `server` so it outlives the query server: the drain
  // hook below runs inside server->Stop() and must find a live admin.
  std::optional<server::AdminServer> admin;
  std::optional<server::Server> server;
  if (admin_enabled) {
    // Flip /readyz to 503 the moment the drain begins — before the query
    // listener closes — so load balancers stop routing ahead of failures.
    options.drain_begin_hook = [&admin] {
      if (admin) admin->SetReady(false);
    };
  }
  if (sharded_mode) {
    shard::ShardingOptions sharding;
    sharding.shards = static_cast<size_t>(*shards);
    sharding.policy = shard_policy;
    sharded_store.emplace();
    HYPERDOM_RETURN_NOT_OK(
        shard::ShardedStore::Build(*data, sharding, &*sharded_store));
    server.emplace(&*sharded_store, criterion.get(), options);
  } else if (mutable_mode) {
    mutable_tree.emplace(data->front().dim());
    std::vector<uint64_t> ids(data->size());
    std::iota(ids.begin(), ids.end(), uint64_t{0});
    HYPERDOM_RETURN_NOT_OK(mutable_tree->Build(*data, ids));
    server.emplace(&*mutable_tree, criterion.get(), options);
  } else {
    tree.emplace(data->front().dim());
    HYPERDOM_RETURN_NOT_OK(tree->BulkLoad(*data));
    server.emplace(&*tree, criterion.get(), options);
  }
  HYPERDOM_RETURN_NOT_OK(server->Start());
  if (admin_enabled) {
    server::AdminOptions admin_options;
    admin_options.host = options.host;
    admin_options.port = static_cast<uint16_t>(*admin_port);
    admin_options.build_info =
        "hyperdom_cli serve, criterion " + std::string(criterion->name()) +
        (sharded_mode
             ? ", sharded x" + std::to_string(sharded_store->shards())
             : (mutable_mode ? ", mutable" : ", read-only"));
    server::AdminServer::Sources sources;
    sources.queue_depth = [&server] { return server->QueueDepth(); };
    sources.active_connections = [&server] {
      return server->counters().active_connections.load();
    };
    sources.requests_served = [&server] {
      return server->counters().requests_served.load();
    };
    if (sharded_mode) {
      sources.store_live = [&sharded_store] {
        return static_cast<uint64_t>(sharded_store->size());
      };
      sources.shards = [&sharded_store] { return sharded_store->shards(); };
    } else if (mutable_mode) {
      sources.store_version = [&mutable_tree] {
        return mutable_tree->version();
      };
      sources.store_live = [&mutable_tree] {
        return static_cast<uint64_t>(mutable_tree->live_size());
      };
    } else {
      sources.store_live = [&tree] {
        return static_cast<uint64_t>(tree->size());
      };
    }
    admin.emplace(std::move(admin_options), std::move(sources));
    HYPERDOM_RETURN_NOT_OK(admin->Start());
  }
  out << "hyperdom_server listening on " << options.host << ":"
      << server->port() << " (" << data->size() << " spheres, criterion "
      << criterion->name() << (mutable_mode ? ", mutable" : "");
  if (sharded_mode) {
    out << ", " << sharded_store->shards() << " shards ("
        << shard::ShardPolicyName(shard_policy) << ")";
  }
  out << ")\n";
  if (admin_enabled) {
    out << "admin plane on " << options.host << ":" << admin->port()
        << " (GET /metrics /metrics.json /healthz /readyz /statusz"
        << " /tracez)\n";
  }
  out << "SIGTERM/SIGINT drains in-flight queries and exits.\n";
  out.flush();

  g_serve_shutdown.store(false, std::memory_order_relaxed);
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  while (!g_serve_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  out << "draining...\n";
  out.flush();
  // Order matters: server->Stop() fires drain_begin_hook (readyz -> 503)
  // and finishes in-flight work; only then does the admin plane go down,
  // so a scraper can watch the drain end-to-end.
  server->Stop();
  if (admin) admin->Stop();
  const server::ServerCounters& counters = server->counters();
  out << "served " << counters.requests_served.load() << " requests ("
      << counters.requests_shed.load() << " shed, "
      << counters.best_effort_responses.load() << " best-effort, "
      << counters.protocol_errors.load() << " protocol errors) across "
      << counters.connections_accepted.load() << " connections\n";
  return Status::OK();
}

// Shared --server/--timeout-ms/--attempts parsing for the remote verbs
// (query/insert/remove).
Result<server::ClientOptions> ParseClientOptions(const ParsedArgs& args) {
  const std::string target = args.GetFlag("server");
  if (target.empty()) return Status::InvalidArgument("missing --server");
  const std::vector<std::string> parts = Split(target, ':');
  uint64_t port = 0;
  if (parts.size() != 2 || !ParseUint64(parts[1], &port) || port == 0 ||
      port > 65535) {
    return Status::InvalidArgument("bad --server (want HOST:PORT): '" +
                                   target + "'");
  }
  auto timeout_ms = RequireUint(args, "timeout-ms", 10000,
                                /*required=*/false, /*min=*/1, INT_MAX);
  if (!timeout_ms.ok()) return timeout_ms.status();
  auto attempts =
      RequireUint(args, "attempts", 4, /*required=*/false, 0, INT_MAX);
  if (!attempts.ok()) return attempts.status();
  server::ClientOptions options;
  options.host = parts[0];
  options.port = static_cast<uint16_t>(port);
  options.io_timeout_ms = static_cast<int>(*timeout_ms);
  options.max_attempts = static_cast<int>(std::max<uint64_t>(1, *attempts));
  return options;
}

Status CmdQuery(const ParsedArgs& args, std::ostream& out) {
  auto options = ParseClientOptions(args);
  if (!options.ok()) return options.status();
  auto query = ParseSphere(args.GetFlag("query"));
  if (!query.ok()) {
    return Status::InvalidArgument("--query: " + query.status().message());
  }
  auto k = RequireUint(args, "k", 10, /*required=*/false, /*min=*/1,
                       std::numeric_limits<uint32_t>::max());
  if (!k.ok()) return k.status();
  const std::string strategy = args.GetFlag("strategy", "hs");
  if (strategy != "hs" && strategy != "df") {
    return Status::InvalidArgument("bad --strategy (hs|df)");
  }
  auto budget_ms =
      RequireUint(args, "budget-ms", 0, /*required=*/false, 0, kMaxMillis);
  if (!budget_ms.ok()) return budget_ms.status();
  auto node_budget = RequireUint(args, "node-budget", 0, /*required=*/false);
  if (!node_budget.ok()) return node_budget.status();

  server::Client client(*options);

  server::KnnRequest request;
  request.query = *query;
  request.k = static_cast<uint32_t>(*k);
  request.strategy = strategy == "hs" ? SearchStrategy::kBestFirst
                                      : SearchStrategy::kDepthFirst;
  request.budget_micros = *budget_ms * 1000;
  request.node_budget = *node_budget;
  Result<server::KnnResponse> response = client.Knn(request);
  if (!response.ok()) return response.status();

  out << response->answers.size() << " possible top-" << *k << " objects ("
      << CompletenessName(response->completeness) << ", "
      << client.last_attempts() << " attempt"
      << (client.last_attempts() == 1 ? "" : "s") << ")\n";
  if (response->completeness == Completeness::kBestEffort) {
    out << "deadline expired server-side: every entry below is certainly in"
           " the exact answer\n";
  }
  size_t shown = 0;
  for (const auto& entry : response->answers) {
    out << "  #" << entry.id << "  " << entry.sphere.ToString()
        << "  maxdist=" << FormatDouble(MaxDist(entry.sphere, *query)) << "\n";
    if (++shown >= 20 && response->answers.size() > 20) {
      out << "  ... (" << response->answers.size() - shown << " more)\n";
      break;
    }
  }
  return Status::OK();
}

Status CmdInsert(const ParsedArgs& args, std::ostream& out) {
  auto options = ParseClientOptions(args);
  if (!options.ok()) return options.status();
  auto id = RequireUint(args, "id", 0, /*required=*/true);
  if (!id.ok()) return id.status();
  auto sphere = ParseSphere(args.GetFlag("sphere"));
  if (!sphere.ok()) {
    return Status::InvalidArgument("--sphere: " + sphere.status().message());
  }
  auto budget_ms =
      RequireUint(args, "budget-ms", 0, /*required=*/false, 0, kMaxMillis);
  if (!budget_ms.ok()) return budget_ms.status();

  server::Client client(*options);
  server::InsertRequest request;
  request.id = *id;
  request.sphere = *sphere;
  request.budget_micros = *budget_ms * 1000;
  Result<server::MutateResponse> response = client.Insert(request);
  if (!response.ok()) return response.status();
  out << "inserted #" << *id << " at store version " << response->version
      << " (" << response->live << " live, " << client.last_attempts()
      << " attempt" << (client.last_attempts() == 1 ? "" : "s") << ")\n";
  return Status::OK();
}

Status CmdRemove(const ParsedArgs& args, std::ostream& out) {
  auto options = ParseClientOptions(args);
  if (!options.ok()) return options.status();
  auto id = RequireUint(args, "id", 0, /*required=*/true);
  if (!id.ok()) return id.status();
  auto budget_ms =
      RequireUint(args, "budget-ms", 0, /*required=*/false, 0, kMaxMillis);
  if (!budget_ms.ok()) return budget_ms.status();

  server::Client client(*options);
  server::RemoveRequest request;
  request.id = *id;
  request.budget_micros = *budget_ms * 1000;
  Result<server::MutateResponse> response = client.Remove(request);
  if (!response.ok()) return response.status();
  out << "removed #" << *id << " at store version " << response->version
      << " (" << response->live << " live, " << client.last_attempts()
      << " attempt" << (client.last_attempts() == 1 ? "" : "s") << ")\n";
  return Status::OK();
}

// Arms the process-wide fault registry from the global --fault-site /
// --fault-rate flags (no-op when neither is given). The probabilistic mode
// is seeded by the same --seed that drives workload generation, so a
// failing run reproduces from the one seed.
Status ArmFaultsFromFlags(const ParsedArgs& args) {
  const std::string site = args.GetFlag("fault-site");
  const std::string rate = args.GetFlag("fault-rate");
  if (site.empty() && rate.empty()) return Status::OK();
  if (!site.empty() && !rate.empty()) {
    return Status::InvalidArgument(
        "--fault-site and --fault-rate are mutually exclusive");
  }
  if (!site.empty()) {
    const auto& sites = AllFaultSites();
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      return Status::InvalidArgument("unknown fault site '" + site + "'");
    }
    auto nth = RequireUint(args, "fault-nth", 1, /*required=*/false, /*min=*/1);
    if (!nth.ok()) return nth.status();
    FaultRegistry::Instance().ArmSite(site, *nth);
    return Status::OK();
  }
  double probability = 0.0;
  if (!ParseDouble(rate, &probability) || probability < 0.0 ||
      probability > 1.0) {
    return Status::InvalidArgument("bad --fault-rate (in [0, 1])");
  }
  auto seed = RequireUint(args, "seed", 0, /*required=*/false);
  if (!seed.ok()) return seed.status();
  FaultRegistry::Instance().ArmRandom(*seed, probability);
  return Status::OK();
}

// Prints the catalogue of process-wide metric names so operators can see
// what --metrics-out will export without reading source.
Status CmdMetrics(const ParsedArgs& /*args*/, std::ostream& out) {
  TablePrinter table({"metric", "type", "help"});
  for (const obs::MetricDef& def : obs::MetricCatalogue()) {
    table.AddRow({def.name, std::string(obs::MetricTypeName(def.type)),
                  def.help});
  }
  out << table.Render();
  return Status::OK();
}

// Applies the logging flags and switches tracing on for --trace-out.
// Tracing must be switched on before the command runs so the spans it
// opens are captured.
Status SetupObservabilityFromFlags(const ParsedArgs& args) {
  const std::string log_level = args.GetFlag("log-level");
  if (!log_level.empty()) {
    obs::LogLevel level = obs::LogLevel::kWarn;
    if (!obs::ParseLogLevel(log_level, &level)) {
      return Status::InvalidArgument(
          "bad --log-level '" + log_level +
          "' (want debug|info|warn|error|off)");
    }
    obs::Logger::Instance().SetLevel(level);
  }
  const std::string log_out = args.GetFlag("log-out");
  if (!log_out.empty()) {
    HYPERDOM_RETURN_NOT_OK(obs::Logger::Instance().OpenFileSink(log_out));
  }
  if (!args.GetFlag("trace-out").empty()) obs::Tracer::Instance().Enable();
  return Status::OK();
}

// Dumps the metrics registry and/or the captured trace to the files named
// by --metrics-out / --trace-out. A `.json` extension on --metrics-out
// selects the machine-readable JSON export; anything else gets Prometheus
// text exposition. Runs after the command so its instruments are final.
Status WriteObservabilityOutputs(const ParsedArgs& args, std::ostream& err) {
  const std::string metrics_out = args.GetFlag("metrics-out");
  if (!metrics_out.empty()) {
    auto& registry = obs::MetricsRegistry::Instance();
    HYPERDOM_RETURN_NOT_OK(WriteStringToFile(
        metrics_out, EndsWith(metrics_out, ".json")
                         ? registry.RenderJson()
                         : registry.RenderPrometheus()));
  }
  const std::string trace_out = args.GetFlag("trace-out");
  if (!trace_out.empty()) {
    const obs::Tracer& tracer = obs::Tracer::Instance();
    if (tracer.dropped() > 0) {
      err << "note: trace ring overflowed; " << tracer.dropped()
          << " oldest records were dropped\n";
    }
    HYPERDOM_RETURN_NOT_OK(
        WriteStringToFile(trace_out, tracer.RenderChromeTrace()));
  }
  return Status::OK();
}

Status CmdHelp(const ParsedArgs& /*args*/, std::ostream& out) {
  out << kUsage;
  return Status::OK();
}

// One row per command: its handler and the flags it reads, space-separated.
// Run() refuses any other flag that is not in kGlobalFlags, so a typo such
// as --certifed fails loudly instead of running the default path.
struct Verb {
  std::string_view name;
  Status (*run)(const ParsedArgs& args, std::ostream& out);
  std::string_view flags;
};

constexpr Verb kVerbs[] = {
    {"generate", CmdGenerate, "out n dim mu centers radii"},
    {"dominate", CmdDominate, "sa sb sq criterion"},
    {"knn", CmdKnn,
     "data query k criterion strategy certified deadline-ms node-budget "
     "queries threads"},
    {"rank", CmdRank, "data target query criterion"},
    {"range", CmdRange, "data query range"},
    {"expiry", CmdExpiry, "sa sb sq va vb vq horizon"},
    {"selfcheck", CmdSelfCheck, "scenes dim mu certified"},
    {"snapshot", CmdSnapshot, "op file data"},
    {"experiment", CmdExperiment, "data queries repeats"},
    {"serve", CmdServe,
     "data port host threads queue-capacity max-connections io-timeout-ms "
     "criterion mutable admin-port slow-query-ms shards shard-policy"},
    {"query", CmdQuery,
     "server query k strategy budget-ms node-budget timeout-ms attempts"},
    {"insert", CmdInsert, "server id sphere budget-ms timeout-ms attempts"},
    {"remove", CmdRemove, "server id budget-ms timeout-ms attempts"},
    {"metrics", CmdMetrics, ""},
    {"help", CmdHelp, ""},
};

// Read by every command: ArmFaultsFromFlags, SetupObservabilityFromFlags
// and WriteObservabilityOutputs, plus the --seed several commands share.
constexpr std::string_view kGlobalFlags =
    "fault-rate fault-site fault-nth seed metrics-out trace-out log-level "
    "log-out";

// True iff `flag` is one of the space-separated names in `list`.
bool ListsFlag(std::string_view list, std::string_view flag) {
  while (!list.empty()) {
    const size_t end = std::min(list.find(' '), list.size());
    if (list.substr(0, end) == flag) return true;
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return false;
}

}  // namespace

std::string ParsedArgs::GetFlag(const std::string& key,
                                const std::string& fallback) const {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("missing command");
  ParsedArgs parsed;
  parsed.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (!StartsWith(token, "--")) {
      return Status::InvalidArgument("expected --flag=value, got '" + token +
                                     "'");
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 2) {
      return Status::InvalidArgument("malformed flag '" + token + "'");
    }
    parsed.flags[token.substr(2, eq - 2)] = token.substr(eq + 1);
  }
  return parsed;
}

Result<Hypersphere> ParseSphere(const std::string& spec) {
  const size_t semi = spec.find(';');
  if (semi == std::string::npos) {
    return Status::InvalidArgument("sphere literal needs 'coords;radius'");
  }
  const std::vector<std::string> coords = Split(spec.substr(0, semi), ',');
  if (coords.empty() || coords.front().empty()) {
    return Status::InvalidArgument("sphere needs at least one coordinate");
  }
  Point center(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    if (!ParseDouble(coords[i], &center[i])) {
      return Status::InvalidArgument("bad coordinate '" + coords[i] + "'");
    }
  }
  double radius = 0.0;
  if (!ParseDouble(spec.substr(semi + 1), &radius) || radius < 0.0) {
    return Status::InvalidArgument("bad radius '" + spec.substr(semi + 1) +
                                   "'");
  }
  return Hypersphere(std::move(center), radius);
}

Result<CriterionKind> ParseCriterion(const std::string& name) {
  if (name == "minmax") return CriterionKind::kMinMax;
  if (name == "mbr") return CriterionKind::kMbr;
  if (name == "gp") return CriterionKind::kGp;
  if (name == "trigonometric") return CriterionKind::kTrigonometric;
  if (name == "hyperbola") return CriterionKind::kHyperbola;
  if (name == "oracle") return CriterionKind::kNumericOracle;
  if (name == "certified") return CriterionKind::kCertified;
  return Status::InvalidArgument("unknown criterion '" + name + "'");
}

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  auto parsed = ParseArgs(args);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n" << kUsage;
    return 2;
  }
  const Verb* verb = nullptr;
  for (const Verb& candidate : kVerbs) {
    if (candidate.name == parsed->command) verb = &candidate;
  }
  if (verb == nullptr) {
    err << "error: unknown command '" << parsed->command << "'\n" << kUsage;
    return 2;
  }
  for (const auto& entry : parsed->flags) {
    const std::string& flag = entry.first;
    if (!ListsFlag(verb->flags, flag) && !ListsFlag(kGlobalFlags, flag)) {
      err << "error: command '" << verb->name << "' does not take --" << flag
          << " (hyperdom_cli help lists each command's flags)\n";
      return 2;
    }
  }
  const Status armed = ArmFaultsFromFlags(*parsed);
  if (!armed.ok()) {
    err << "error: " << armed.ToString() << "\n";
    return 2;
  }
  const Status observing = SetupObservabilityFromFlags(*parsed);
  if (!observing.ok()) {
    err << "error: " << observing.ToString() << "\n";
    return 2;
  }
  Status status = verb->run(*parsed, out);
  if (status.ok()) {
    status = WriteObservabilityOutputs(*parsed, err);
  }
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    // Scripted callers (and the load generator) distinguish the wire-
    // protocol failure classes without parsing stderr.
    switch (status.code()) {
      case StatusCode::kOverloaded:
        return 3;
      case StatusCode::kDeadlineExceeded:
        return 4;
      case StatusCode::kProtocolError:
        return 5;
      case StatusCode::kConflict:
        return 6;
      default:
        return 1;
    }
  }
  return 0;
}

}  // namespace cli
}  // namespace hyperdom

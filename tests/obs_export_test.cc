// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// End-to-end observability test through the CLI library: a kNN workload
// run with --metrics-out/--trace-out must produce a valid Prometheus/JSON
// metrics dump and a Chrome trace whose per-query spans reconcile exactly
// with the registry counters.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/cli.h"

namespace hyperdom {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int RunCli(const std::vector<std::string>& args, std::string* out_text) {
  std::ostringstream out, err;
  const int code = cli::Run(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  EXPECT_EQ(err.str(), "") << "stderr: " << err.str();
  return code;
}

// Generates a small shared dataset once for every test in this binary.
class ObsExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One file per process: ctest runs each test as its own process, in
    // parallel, and each one removes the file when it finishes.
    data_path_ = new std::string(TempPath(
        "obs_export_data_" + std::to_string(::getpid()) + ".csv"));
    std::ostringstream out, err;
    const int code =
        cli::Run({"generate", "--out=" + *data_path_, "--n=800", "--dim=3",
                  "--seed=42"},
                 out, err);
    ASSERT_EQ(code, 0) << err.str();
  }
  static void TearDownTestSuite() {
    std::remove(data_path_->c_str());
    delete data_path_;
    data_path_ = nullptr;
  }
  void SetUp() override { obs::MetricsRegistry::Instance().ResetAll(); }

  static std::string* data_path_;
};

std::string* ObsExportTest::data_path_ = nullptr;

// Extracts the value of `"name": <uint>` from a JSON dump. Returns 0 when
// the key is absent.
uint64_t JsonUint(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST_F(ObsExportTest, MetricsJsonAndPrometheusOutputs) {
  const std::string json_path = TempPath("obs_export_metrics.json");
  const std::string prom_path = TempPath("obs_export_metrics.prom");
  ASSERT_EQ(RunCli({"knn", "--data=" + *data_path_, "--queries=25", "--k=4",
                    "--metrics-out=" + json_path},
                   nullptr),
            0);
  const std::string json = ReadFileOrDie(json_path);
  EXPECT_NE(json.find("\"schema\": \"hyperdom-metrics-v1\""),
            std::string::npos);
  EXPECT_EQ(
      JsonUint(json, "hyperdom_knn_queries_total{index=\\\"ss\\\"}"), 25u);
  EXPECT_EQ(JsonUint(json, "hyperdom_index_builds_total{index=\\\"ss\\\"}"),
            1u);

  obs::MetricsRegistry::Instance().ResetAll();
  ASSERT_EQ(RunCli({"knn", "--data=" + *data_path_, "--queries=10", "--k=4",
                    "--metrics-out=" + prom_path},
                   nullptr),
            0);
  const std::string prom = ReadFileOrDie(prom_path);
  EXPECT_NE(prom.find("# TYPE hyperdom_knn_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("hyperdom_knn_queries_total{index=\"ss\"} 10"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE hyperdom_knn_query_duration_ns histogram"),
      std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST_F(ObsExportTest, TraceSpansReconcileWithCounters) {
  const std::string trace_path = TempPath("obs_export_trace.json");
  constexpr uint64_t kQueries = 30;
  ASSERT_EQ(RunCli({"knn", "--data=" + *data_path_,
                    "--queries=" + std::to_string(kQueries), "--k=4",
                    "--trace-out=" + trace_path},
                   nullptr),
            0);

  // The tracer still holds the records the CLI exported; reconcile the
  // structured view against the registry.
  uint64_t knn_spans = 0;
  uint64_t span_nodes_visited = 0;
  uint64_t span_checks = 0;
  for (const obs::TraceRecord& r : obs::Tracer::Instance().Records()) {
    if (r.name != "knn/query") continue;
    ++knn_spans;
    for (const obs::TraceArg& arg : r.args) {
      if (arg.key == "nodes_visited") {
        span_nodes_visited += std::strtoull(arg.value.c_str(), nullptr, 10);
      } else if (arg.key == "dominance_checks") {
        span_checks += std::strtoull(arg.value.c_str(), nullptr, 10);
      }
    }
  }
  auto& registry = obs::MetricsRegistry::Instance();
  auto counter = [&](const obs::MetricDef& def) {
    return registry.GetCounter(def, "index", "ss")->Value();
  };
  EXPECT_EQ(knn_spans, kQueries);
  EXPECT_EQ(counter(obs::kKnnQueries), kQueries);
  // Exact reconciliation: the recorder annotates each span with the same
  // stats it adds to the counters.
  EXPECT_EQ(span_nodes_visited, counter(obs::kKnnNodesVisited));
  EXPECT_EQ(span_checks, counter(obs::kKnnDominanceChecks));
  EXPECT_GT(span_checks, 0u);

  // The exported file is the Chrome trace of those records.
  const std::string trace = ReadFileOrDie(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"knn/query\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"index/build\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(ObsExportTest, DeadlineExpiryShowsUpInMetricsAndTrace) {
  const std::string trace_path = TempPath("obs_export_deadline_trace.json");
  constexpr uint64_t kQueries = 10;
  // A one-node budget expires inside every query.
  ASSERT_EQ(RunCli({"knn", "--data=" + *data_path_,
                    "--queries=" + std::to_string(kQueries), "--k=4",
                    "--node-budget=1", "--trace-out=" + trace_path},
                   nullptr),
            0);
  auto& registry = obs::MetricsRegistry::Instance();
  EXPECT_EQ(registry.GetCounter(obs::kKnnBestEffort, "index", "ss")->Value(),
            kQueries);
  EXPECT_GE(registry.GetCounter(obs::kDeadlineExpired)->Value(), kQueries);
  uint64_t expiry_events = 0;
  for (const obs::TraceRecord& r : obs::Tracer::Instance().Records()) {
    if (r.name == "deadline_expired") {
      EXPECT_TRUE(r.instant);
      EXPECT_NE(r.parent, 0u) << "expiry event should attach to its query";
      ++expiry_events;
    }
  }
  EXPECT_EQ(expiry_events, kQueries);
  std::remove(trace_path.c_str());
}

TEST_F(ObsExportTest, MetricsVerbListsCatalogue) {
  std::string out;
  ASSERT_EQ(RunCli({"metrics"}, &out), 0);
  EXPECT_NE(out.find("hyperdom_knn_queries_total"), std::string::npos);
  EXPECT_NE(out.find("histogram"), std::string::npos);
  EXPECT_NE(out.find("hyperdom_trace_dropped_total"), std::string::npos);
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Bench smoke job: runs one real figure binary (fig13_knn_radius) in
// --smoke mode with --json-out/--metrics-out and validates the emitted
// hyperdom-bench-v1 JSON schema plus the metrics dump. This is the CI
// guard for the BENCH_*.json artifacts under bench/results/.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace hyperdom {
namespace {

#if !defined(HYPERDOM_FIG13_BINARY)
#error "obs_bench_smoke_test requires HYPERDOM_FIG13_BINARY"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ObsBenchSmokeTest, Fig13EmitsValidArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/BENCH_knn_smoke.json";
  const std::string metrics_path = dir + "/bench_smoke_metrics.prom";
  const std::string command = std::string(HYPERDOM_FIG13_BINARY) +
                              " --smoke --json-out=" + json_path +
                              " --metrics-out=" + metrics_path +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::string json = ReadFileOrDie(json_path);
  // hyperdom-bench-v1 schema: header fields plus one entry per sweep
  // point, each row carrying the per-algorithm measurements.
  EXPECT_NE(json.find("\"schema\": \"hyperdom-bench-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"fig13_knn_radius\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  // Provenance: the host the run measured.
  EXPECT_NE(json.find("\"host\": {\"nproc\": "), std::string::npos);
  EXPECT_NE(json.find("\"cpus_allowed\": "), std::string::npos);
  EXPECT_NE(json.find("\"kernel_dispatch\": \""), std::string::npos);
  EXPECT_NE(json.find("\"sweeps\": ["), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"mu = 5\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"mu = 100\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"HS(Hyper)\""), std::string::npos);
  EXPECT_NE(json.find("\"millis_per_query\": "), std::string::npos);
  EXPECT_NE(json.find("\"precision_pct\": "), std::string::npos);
  EXPECT_NE(json.find("\"recall_pct\": "), std::string::npos);

  const std::string metrics = ReadFileOrDie(metrics_path);
  EXPECT_NE(metrics.find("# TYPE hyperdom_knn_queries_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("hyperdom_index_builds_total{index=\"ss\"}"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("# TYPE hyperdom_experiment_duration_ns histogram"),
      std::string::npos);

  std::remove(json_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Smoke job for the server load generator: runs bench/server_load in
// --smoke mode and validates the emitted hyperdom-bench-v1 JSON — the CI
// guard for bench/results/BENCH_server.json and the check that the whole
// client/server request path works when driven as a subprocess.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace hyperdom {
namespace {

#if !defined(HYPERDOM_SERVER_LOAD_BINARY)
#error "server_load_smoke_test requires HYPERDOM_SERVER_LOAD_BINARY"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ServerLoadSmokeTest, EmitsValidBenchArtifact) {
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/BENCH_server_smoke.json";
  const std::string command = std::string(HYPERDOM_SERVER_LOAD_BINARY) +
                              " --smoke --json-out=" + json_path +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::string json = ReadFileOrDie(json_path);
  EXPECT_NE(json.find("\"schema\": \"hyperdom-bench-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"server_load\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"overload shedding\""),
            std::string::npos);
  EXPECT_NE(json.find("\"label\": \"contention\""), std::string::npos);
  EXPECT_NE(json.find("\"concurrency\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"qps\": "), std::string::npos);
  EXPECT_NE(json.find("\"p50_micros\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99_micros\": "), std::string::npos);
  EXPECT_NE(json.find("\"shed_rate\": "), std::string::npos);
  EXPECT_NE(json.find("\"best_effort_rate\": "), std::string::npos);
}

}  // namespace
}  // namespace hyperdom

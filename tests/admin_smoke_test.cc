// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Whole-binary smoke test of the admin plane: fork/exec the real
// `hyperdom_cli serve` with --port=0 --admin-port=0, read both bound
// ports from its stdout, hit the admin endpoints over real HTTP, run a
// v2 kNN against the query port, then SIGTERM it and require a clean
// drain (exit 0). This is the deployment path — one binary, two ports —
// exercised end to end by tier-1 ctest.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "data/csv.h"
#include "data/generator.h"
#include "eval/workload.h"
#include "server/admin.h"
#include "server/client.h"

namespace hyperdom {
namespace server {
namespace {

#if !defined(HYPERDOM_CLI_BINARY)
#error "admin_smoke_test requires HYPERDOM_CLI_BINARY"
#endif

// Reads lines from `fd` until `pattern` shows up or `timeout_ms` passes;
// returns everything read. The server prints its banners and flushes
// before blocking, so this terminates fast in the happy path.
std::string ReadUntil(int fd, const std::string& pattern, int timeout_ms) {
  std::string out;
  const auto give_up = timeout_ms;
  int waited = 0;
  while (out.find(pattern) == std::string::npos && waited < give_up) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    waited += 100;
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// Pulls the port out of "... on 127.0.0.1:PORT ..." following `prefix`.
uint16_t ParsePortAfter(const std::string& text, const std::string& prefix) {
  const size_t at = text.find(prefix);
  if (at == std::string::npos) return 0;
  const size_t colon = text.find("127.0.0.1:", at);
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::atoi(text.c_str() + colon + std::strlen("127.0.0.1:")));
}

TEST(AdminSmokeTest, RealBinaryServesBothPlanesAndDrainsOnSigterm) {
  // Dataset on disk for the child to load.
  const std::string csv_path = ::testing::TempDir() + "/admin_smoke.csv";
  SyntheticSpec spec;
  spec.n = 2'000;
  spec.dim = 3;
  spec.radius_mean = 10.0;
  spec.center_mean = 100.0;
  spec.center_stddev = 30.0;
  spec.seed = 12'000;
  const auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(SaveSpheresCsv(csv_path, data).ok());

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: stdout -> pipe, exec the server with both ports ephemeral.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string data_flag = "--data=" + csv_path;
    ::execl(HYPERDOM_CLI_BINARY, HYPERDOM_CLI_BINARY, "serve",
            data_flag.c_str(), "--port=0", "--admin-port=0",
            "--slow-query-ms=0", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(out_pipe[1]);

  const std::string banner =
      ReadUntil(out_pipe[0], "SIGTERM/SIGINT", /*timeout_ms=*/15'000);
  const uint16_t query_port =
      ParsePortAfter(banner, "hyperdom_server listening on");
  const uint16_t admin_port = ParsePortAfter(banner, "admin plane on");
  ASSERT_NE(query_port, 0) << "no query port in banner:\n" << banner;
  ASSERT_NE(admin_port, 0) << "no admin port in banner:\n" << banner;

  // Admin plane answers.
  auto healthz = AdminHttpGet("127.0.0.1", admin_port, "/healthz", 5'000);
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->status_code, 200);
  auto readyz = AdminHttpGet("127.0.0.1", admin_port, "/readyz", 5'000);
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status_code, 200);

  // Query plane answers a v2 kNN.
  ClientOptions client_options;
  client_options.port = query_port;
  Client client(client_options);
  KnnRequest request;
  request.query = MakeKnnQueries(data, 1, 12'100)[0];
  request.k = 5;
  auto response = client.Knn(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->answers.empty());
  EXPECT_NE(client.last_request_id(), 0u);

  // The scrape sees the served request in the exported metrics.
  auto metrics = AdminHttpGet("127.0.0.1", admin_port, "/metrics", 5'000);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("hyperdom_admin_requests_total"),
            std::string::npos);
  auto statusz = AdminHttpGet("127.0.0.1", admin_port, "/statusz", 5'000);
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz->body.find("\"requests_served\":1"), std::string::npos);

  // SIGTERM -> graceful drain -> exit 0.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "server did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  ::close(out_pipe[0]);
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

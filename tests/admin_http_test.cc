// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Admin-plane tests: every endpoint over real loopback HTTP, the
// malformed/oversized/unknown-request hardening (which must never touch
// the query path), the /readyz flip during graceful drain — pinned to
// happen BEFORE the query listener closes — and the background tick that
// keeps gauges fresh while all workers are parked.

#include "server/admin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"

namespace hyperdom {
namespace server {
namespace {

// Starts a bare admin plane (no query server behind it) with canned
// sources; asserts on failure.
std::unique_ptr<AdminServer> StartAdmin(AdminOptions options = {},
                                        AdminServer::Sources sources = {}) {
  auto admin = std::make_unique<AdminServer>(std::move(options),
                                             std::move(sources));
  const Status started = admin->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return admin;
}

Result<HttpResponse> Get(const AdminServer& admin, const std::string& target) {
  return AdminHttpGet("127.0.0.1", admin.port(), target, /*timeout_ms=*/2000);
}

TEST(AdminHttpTest, ServesEveryEndpoint) {
  AdminServer::Sources sources;
  sources.queue_depth = [] { return size_t{3}; };
  sources.active_connections = [] { return int64_t{2}; };
  sources.requests_served = [] { return uint64_t{77}; };
  sources.store_version = [] { return uint64_t{5}; };
  sources.store_live = [] { return uint64_t{1000}; };
  AdminOptions options;
  options.build_info = "test build";
  auto admin = StartAdmin(options, std::move(sources));

  auto metrics = Get(*admin, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status_code, 200);

  auto metrics_json = Get(*admin, "/metrics.json");
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_EQ(metrics_json->status_code, 200);
  EXPECT_NE(metrics_json->body.find("\"schema\": \"hyperdom-metrics-v1\""),
            std::string::npos);

  auto healthz = Get(*admin, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);
  EXPECT_EQ(healthz->body, "ok\n");

  auto readyz = Get(*admin, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status_code, 200);
  EXPECT_EQ(readyz->body, "ready\n");

  auto statusz = Get(*admin, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status_code, 200);
  EXPECT_NE(statusz->body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"build\":\"test build\""),
            std::string::npos);
  EXPECT_NE(statusz->body.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"version\":5"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"live\":1000"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"epoch_lag\":"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"queue_depth\":3"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"active_connections\":2"),
            std::string::npos);
  EXPECT_NE(statusz->body.find("\"requests_served\":77"), std::string::npos);

  auto tracez = Get(*admin, "/tracez");
  ASSERT_TRUE(tracez.ok());
  EXPECT_EQ(tracez->status_code, 200);
  EXPECT_NE(tracez->body.find("traceEvents"), std::string::npos);

  EXPECT_EQ(admin->counters().requests.load(), 6u);
  EXPECT_EQ(admin->counters().http_errors.load(), 0u);
}

TEST(AdminHttpTest, QueryStringsAreIgnored) {
  auto admin = StartAdmin();
  auto response = Get(*admin, "/healthz?probe=lb");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
}

TEST(AdminHttpTest, UnknownEndpointIs404) {
  auto admin = StartAdmin();
  auto response = Get(*admin, "/nope");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 404);
  EXPECT_EQ(admin->counters().http_errors.load(), 1u);
}

// Raw-socket sender for requests AdminHttpGet cannot produce.
// `half_close` signals end-of-request via SHUT_WR (so the server sees a
// truncated request rather than waiting out its read timeout).
Result<HttpResponse> SendRaw(const AdminServer& admin, const std::string& raw,
                             bool half_close = false) {
  Result<int> fd = ConnectWithTimeout("127.0.0.1", admin.port(), 2000);
  if (!fd.ok()) return fd.status();
  Status wrote = WriteFull(*fd, raw.data(), raw.size(), 2000);
  if (!wrote.ok()) {
    CloseSocket(*fd);
    return wrote;
  }
  if (half_close) ShutdownWrite(*fd);
  std::string out;
  char chunk[4096];
  for (;;) {
    Result<size_t> got = ReadSome(*fd, chunk, sizeof(chunk), 2000);
    if (!got.ok()) {
      CloseSocket(*fd);
      return got.status();
    }
    if (*got == 0) break;
    out.append(chunk, *got);
  }
  CloseSocket(*fd);
  HttpResponse response;
  const size_t sp = out.find(' ');
  if (sp == std::string::npos) return Status::ProtocolError("no status line");
  response.status_code = std::atoi(out.c_str() + sp + 1);
  response.body = out;
  return response;
}

TEST(AdminHttpTest, MalformedRequestLineIs400) {
  auto admin = StartAdmin();
  auto response = SendRaw(*admin, "garbage-no-spaces\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
}

TEST(AdminHttpTest, TruncatedRequestIs400) {
  auto admin = StartAdmin();
  // Close before the header terminator ever arrives.
  auto response =
      SendRaw(*admin, "GET /healthz HTTP/1.0\r\n", /*half_close=*/true);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
}

TEST(AdminHttpTest, NonGetIs405) {
  auto admin = StartAdmin();
  auto response =
      SendRaw(*admin, "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 405);
}

TEST(AdminHttpTest, OversizedRequestIs431) {
  AdminOptions options;
  options.max_request_bytes = 256;
  auto admin = StartAdmin(options);
  const std::string huge =
      "GET /metrics HTTP/1.0\r\nX-Pad: " + std::string(4096, 'x') + "\r\n\r\n";
  auto response = SendRaw(*admin, huge);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 431);
  EXPECT_EQ(admin->counters().http_errors.load(), 1u);
  EXPECT_EQ(admin->counters().requests.load(), 0u);
}

TEST(AdminHttpTest, ReadyzFlipsOn503) {
  auto admin = StartAdmin();
  admin->SetReady(false);
  auto response = Get(*admin, "/readyz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 503);
  EXPECT_EQ(response->body, "draining\n");
  admin->SetReady(true);
  response = Get(*admin, "/readyz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
}

// Fixture owning a small dataset + tree for tests that need a real query
// server behind the admin plane.
class AdminServerIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.n = 2'000;
    spec.dim = 3;
    spec.radius_mean = 10.0;
    spec.center_mean = 100.0;
    spec.center_stddev = 30.0;
    spec.seed = 8'800;
    data_ = GenerateSynthetic(spec);
    tree_ = std::make_unique<SsTree>(spec.dim);
    ASSERT_TRUE(tree_->BulkLoadStr(data_).ok());
    criterion_ = MakeCriterion(CriterionKind::kHyperbola);
    queries_ = MakeKnnQueries(data_, 8, 8'900);
  }

  std::vector<Hypersphere> data_;
  std::unique_ptr<SsTree> tree_;
  std::unique_ptr<const DominanceCriterion> criterion_;
  std::vector<Hypersphere> queries_;
};

// The acceptance-pinned ordering: drain_begin_hook (which flips /readyz
// to 503) runs BEFORE the query listener closes, so during that window a
// load balancer sees "draining" while the query port still accepts.
TEST_F(AdminServerIntegrationTest, ReadyzFlipsBeforeListenerCloses) {
  AdminServer admin({}, {});
  ASSERT_TRUE(admin.Start().ok());

  bool listener_open_at_drain = false;
  int readyz_at_drain = 0;
  ServerOptions options;
  Server* server_ptr = nullptr;
  std::unique_ptr<Server> server;
  options.drain_begin_hook = [&] {
    admin.SetReady(false);
    auto readyz = AdminHttpGet("127.0.0.1", admin.port(), "/readyz", 2000);
    if (readyz.ok()) readyz_at_drain = readyz->status_code;
    // The query listener has NOT closed yet: a fresh TCP connect to the
    // query port must still complete.
    auto fd = ConnectWithTimeout("127.0.0.1", server_ptr->port(), 2000);
    listener_open_at_drain = fd.ok();
    if (fd.ok()) CloseSocket(*fd);
  };
  server = std::make_unique<Server>(tree_.get(), criterion_.get(), options);
  server_ptr = server.get();
  ASSERT_TRUE(server->Start().ok());

  // Sanity: both planes answer before the drain.
  auto ready = AdminHttpGet("127.0.0.1", admin.port(), "/readyz", 2000);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status_code, 200);

  server->Stop();
  EXPECT_EQ(readyz_at_drain, 503);
  EXPECT_TRUE(listener_open_at_drain)
      << "query listener closed before the drain hook ran";
  admin.Stop();
}

// Admin HTTP garbage must never reach the query path: fire hostile admin
// requests while the query server works, then check the query-side
// counters saw only the real queries.
TEST_F(AdminServerIntegrationTest, AdminGarbageNeverTouchesQueryPath) {
  ServerOptions options;
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  AdminServer::Sources sources;
  sources.requests_served = [&server] {
    return server.counters().requests_served.load();
  };
  AdminServer admin({}, std::move(sources));
  ASSERT_TRUE(admin.Start().ok());

  ClientOptions client_options;
  client_options.port = server.port();
  Client client(client_options);
  KnnRequest request;
  request.query = queries_[0];
  request.k = 5;
  ASSERT_TRUE(client.Knn(request).ok());

  (void)SendRaw(admin, "BOGUS\r\n\r\n");
  (void)SendRaw(admin, "DELETE /metrics HTTP/1.0\r\n\r\n");
  (void)Get(admin, "/missing");
  ASSERT_TRUE(client.Knn(request).ok());

  EXPECT_EQ(server.counters().requests_served.load(), 2u);
  EXPECT_EQ(server.counters().protocol_errors.load(), 0u);
  EXPECT_EQ(admin.counters().http_errors.load(), 3u);
  admin.Stop();
  server.Stop();
}

// The background tick must keep the queue-depth gauge fresh with zero
// traffic: park the request holding the only permit, fill the queue, wipe
// the metrics, and the next ticks alone must restore the gauge to the
// queue size.
TEST_F(AdminServerIntegrationTest, TickRefreshesGaugesWithParkedWorkers) {
  std::atomic<bool> release{false};
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 4;
  options.admitted_hook = [&release](uint64_t) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  AdminOptions admin_options;
  admin_options.tick_interval_ms = 20;
  AdminServer::Sources sources;
  sources.queue_depth = [&server] { return server.QueueDepth(); };
  AdminServer admin(std::move(admin_options), std::move(sources));
  ASSERT_TRUE(admin.Start().ok());

  // Fill the queue: one request holds the permit, parked, so the other
  // three pile up behind it.
  std::vector<std::thread> senders;
  for (int i = 0; i < 4; ++i) {
    senders.emplace_back([this, port = server.port(), i] {
      ClientOptions client_options;
      client_options.port = port;
      client_options.max_attempts = 1;
      Client client(client_options);
      KnnRequest request;
      request.query = queries_[static_cast<size_t>(i)];
      request.k = 5;
      (void)client.Knn(request);
    });
  }
  // Wait until the queue really holds the 3 requests.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.QueueDepth() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.QueueDepth(), 3u);

  // Wipe every gauge, then let ticks alone restore it — proof the admin
  // plane re-samples rather than relying on query-path write-through.
  obs::MetricsRegistry::Instance().ResetAll();
  const uint64_t ticks_before = admin.counters().ticks.load();
  while (admin.counters().ticks.load() < ticks_before + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(admin.counters().ticks.load(), ticks_before + 2);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::Instance()
                       .GetGauge(std::string(obs::kServerQueueDepth.name))
                       ->Value(),
                   3.0);

  release.store(true);
  for (auto& t : senders) t.join();
  admin.Stop();
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

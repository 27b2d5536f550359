// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Loopback end-to-end tests for the hyperdom query server: exact answers
// bit-identical to the in-process searcher, deadline-expiry degrading to
// proven best-effort subsets over the wire, queue-full load shedding, a
// request that throws answered on an open connection, a contended permit
// answering or shedding every request, hardened handling of
// garbage/corrupt/oversized/slow clients and of wrong-dimensional queries,
// graceful drain of in-flight requests, and a recovery sweep over the
// injected fault sites. Every test runs a real TCP server on 127.0.0.1.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/workload.h"
#include "index/mutable_ss_tree.h"
#include "index/ss_tree.h"
#include "query/knn.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/sharded_store.h"

namespace hyperdom {
namespace server {
namespace {

class ServerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().Reset();
    SyntheticSpec spec;
    spec.n = 3'000;
    spec.dim = 3;
    spec.radius_mean = 10.0;
    spec.center_mean = 100.0;
    spec.center_stddev = 30.0;
    spec.seed = 4'400;
    data_ = GenerateSynthetic(spec);
    tree_ = std::make_unique<SsTree>(spec.dim);
    ASSERT_TRUE(tree_->BulkLoadStr(data_).ok());
    criterion_ = MakeCriterion(CriterionKind::kHyperbola);
    queries_ = MakeKnnQueries(data_, 20, 4'500);
  }

  void TearDown() override { FaultRegistry::Instance().Reset(); }

  // Starts a server over the fixture tree; asserts on failure.
  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    auto server =
        std::make_unique<Server>(tree_.get(), criterion_.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  Client MakeClient(uint16_t port, int max_attempts = 4) {
    ClientOptions options;
    options.port = port;
    options.max_attempts = max_attempts;
    options.backoff_base_ms = 1;  // keep retrying tests fast
    options.backoff_max_ms = 20;
    return Client(options);
  }

  KnnResult DirectSearch(const Hypersphere& query, uint32_t k) const {
    KnnOptions options;
    options.k = k;
    const KnnSearcher searcher(criterion_.get(), options);
    return searcher.Search(*tree_, query);
  }

  std::vector<Hypersphere> data_;
  std::unique_ptr<SsTree> tree_;
  std::unique_ptr<const DominanceCriterion> criterion_;
  std::vector<Hypersphere> queries_;
};

// Request ID the raw-socket tests send their hand-built frames under.
constexpr uint64_t kRawId = 1;

// Reads one response frame from a raw socket; the request-ID prefix is
// stripped off `payload`.
Status ReadFrame(int fd, FrameKind* kind, std::string* payload) {
  char header_bytes[kFrameHeaderSize];
  HYPERDOM_RETURN_NOT_OK(
      ReadFull(fd, header_bytes, sizeof(header_bytes), 2'000));
  Result<FrameHeader> header = DecodeFrameHeader(
      std::string_view(header_bytes, sizeof(header_bytes)),
      kDefaultMaxPayloadBytes);
  HYPERDOM_RETURN_NOT_OK(header.status());
  payload->assign(header->payload_size, '\0');
  if (header->payload_size > 0) {
    HYPERDOM_RETURN_NOT_OK(
        ReadFull(fd, payload->data(), payload->size(), 2'000));
  }
  HYPERDOM_RETURN_NOT_OK(VerifyPayloadCrc(*header, *payload));
  std::string_view body(*payload);
  uint64_t echoed_id = 0;
  HYPERDOM_RETURN_NOT_OK(ExtractRequestId(&body, &echoed_id));
  payload->erase(0, sizeof(echoed_id));
  *kind = header->kind;
  return Status::OK();
}

// Reads one frame and decodes it as an error response.
Status ReadErrorFrame(int fd, Status* remote) {
  FrameKind kind = FrameKind::kPingRequest;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(ReadFrame(fd, &kind, &payload));
  if (kind != FrameKind::kErrorResponse) {
    return Status::Internal("expected an error frame");
  }
  return DecodeErrorResponse(payload, remote);
}

TEST_F(ServerE2eTest, PingPong) {
  auto server = StartServer();
  Client client = MakeClient(server->port());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.last_attempts(), 1);
}

TEST_F(ServerE2eTest, ExactAnswersAreBitIdenticalToDirectSearch) {
  auto server = StartServer();
  Client client = MakeClient(server->port());
  for (const Hypersphere& query : queries_) {
    KnnRequest request;
    request.query = query;
    request.k = 10;
    Result<KnnResponse> response = client.Knn(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->completeness, Completeness::kExact);

    const KnnResult direct = DirectSearch(query, 10);
    ASSERT_EQ(response->answers.size(), direct.answers.size());
    for (size_t i = 0; i < direct.answers.size(); ++i) {
      EXPECT_EQ(response->answers[i].id, direct.answers[i].id);
      ASSERT_EQ(response->answers[i].sphere.dim(),
                direct.answers[i].sphere.dim());
      EXPECT_EQ(std::memcmp(response->answers[i].sphere.center().data(),
                            direct.answers[i].sphere.center().data(),
                            direct.answers[i].sphere.dim() * sizeof(double)),
                0);
      EXPECT_EQ(response->answers[i].sphere.radius(),
                direct.answers[i].sphere.radius());
    }
  }
}

TEST_F(ServerE2eTest, DeadlineExpiryReturnsProvenSubsetOverWire) {
  auto server = StartServer();
  Client client = MakeClient(server->port());
  size_t best_effort_seen = 0;
  for (const Hypersphere& query : queries_) {
    KnnRequest request;
    request.query = query;
    request.k = 10;
    request.node_budget = 1;  // deterministic near-immediate expiry
    Result<KnnResponse> response = client.Knn(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->completeness != Completeness::kBestEffort) continue;
    ++best_effort_seen;
    // The robustness contract (docs/robustness.md §7): every best-effort
    // answer is certainly a member of the exact answer set.
    const KnnResult exact = DirectSearch(query, 10);
    std::set<uint64_t> exact_ids;
    for (const DataEntry& entry : exact.answers) exact_ids.insert(entry.id);
    for (const DataEntry& entry : response->answers) {
      EXPECT_TRUE(exact_ids.count(entry.id))
          << "best-effort answer #" << entry.id
          << " is not in the exact answer set";
    }
  }
  EXPECT_GT(best_effort_seen, 0u)
      << "node budget 1 never expired a traversal";
  EXPECT_EQ(server->counters().best_effort_responses.load(),
            best_effort_seen);
}

TEST_F(ServerE2eTest, QueueFullRequestsAreShedNotQueued) {
  // One permit, its holder parked until released; a wait bound of 1. The
  // first request holds the permit and the second waits for it, filling
  // the queue; the third must be refused immediately with kOverloaded —
  // no waiting, no hang — while the connection stays open.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  options.admitted_hook = [released](uint64_t) { released.wait(); };
  auto server = StartServer(options);

  KnnRequest request;
  request.query = queries_.front();
  request.k = 5;

  Client parked_client = MakeClient(server->port());
  std::thread parked([&] {
    Result<KnnResponse> response = parked_client.Knn(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->completeness, Completeness::kExact);
  });
  // Wait until the first request is admitted.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server->counters().connections_accepted.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The second request waits for the permit (queue depth 1).
  Client queued_client = MakeClient(server->port());
  std::thread queued([&] {
    Result<KnnResponse> response = queued_client.Knn(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  while (server->QueueDepth() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->QueueDepth(), 1u);

  Client shed_client = MakeClient(server->port(), /*max_attempts=*/1);
  Result<KnnResponse> shed = shed_client.Knn(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(server->counters().requests_shed.load(), 1u);

  // The shed connection is still usable: once capacity frees up, the
  // same client succeeds without reconnecting.
  release.set_value();
  parked.join();
  queued.join();
  Result<KnnResponse> retry = shed_client.Knn(request);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ServerE2eTest, StopDrainsInFlightRequests) {
  // A request admitted before Stop() must complete and its response must
  // flush — drain loses nothing that was accepted.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ServerOptions options;
  options.worker_threads = 1;
  options.admitted_hook = [released](uint64_t) { released.wait(); };
  auto server = StartServer(options);

  KnnRequest request;
  request.query = queries_.front();
  request.k = 5;
  Client client = MakeClient(server->port());
  std::thread in_flight([&] {
    Result<KnnResponse> response = client.Knn(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server->counters().connections_accepted.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Release the request just after the drain starts.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.set_value();
  });
  server->Stop();
  releaser.join();
  in_flight.join();
  EXPECT_EQ(server->counters().requests_served.load(), 1u);
}

TEST_F(ServerE2eTest, ThrowingRequestIsAnsweredAndReleasesItsPermit) {
  // A throw while a request runs on its connection's thread comes back
  // as a kInternal frame; the connection stays open and the only permit
  // is given back, so the same client's next request is answered.
  std::atomic<int> calls{0};
  ServerOptions options;
  options.worker_threads = 1;
  options.admitted_hook = [&calls](uint64_t) {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("boom");
  };
  auto server = StartServer(options);

  KnnRequest request;
  request.query = queries_.front();
  request.k = 5;
  Client client = MakeClient(server->port());
  Result<KnnResponse> failed = client.Knn(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("boom"), std::string::npos)
      << failed.status().ToString();

  Result<KnnResponse> answered = client.Knn(request);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  const KnnResult direct = DirectSearch(request.query, request.k);
  ASSERT_EQ(answered->answers.size(), direct.answers.size());
  for (size_t i = 0; i < direct.answers.size(); ++i) {
    EXPECT_EQ(answered->answers[i].id, direct.answers[i].id);
  }
  EXPECT_EQ(server->counters().connections_accepted.load(), 1u);
}

TEST_F(ServerE2eTest, ContendedPermitAnswersOrShedsEveryRequest) {
  // Eight closed-loop clients on one permit with a wait bound of 1: each
  // release hands the permit to the one waiter, and the next request
  // waits on the slot it just left. Every request is answered or shed
  // with kOverloaded; a lost hand-off shows as a client timing out.
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  auto server = StartServer(options);

  constexpr int kClients = 8;
  constexpr int kRequests = 500;
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions client_options;
      client_options.port = server->port();
      client_options.max_attempts = 1;
      client_options.io_timeout_ms = 2000;
      Client client(client_options);
      KnnRequest request;
      request.k = 5;
      for (int i = 0; i < kRequests; ++i) {
        request.query = queries_[(c + i) % queries_.size()];
        Result<KnnResponse> response = client.Knn(request);
        if (response.ok()) {
          ++answered;
        } else if (response.status().code() == StatusCode::kOverloaded) {
          ++shed;
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(answered.load() + shed.load(), kClients * kRequests);
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(server->counters().requests_served.load(),
            static_cast<uint64_t>(answered.load()));
  EXPECT_EQ(server->QueueDepth(), 0u);
  // A thread still asleep for a lost hand-off would keep Stop() joining
  // it forever; leave that server running so the failure reports.
  if (failed.load() != 0) (void)server.release();
}

TEST_F(ServerE2eTest, GarbageBytesGetProtocolErrorAndServerSurvives) {
  auto server = StartServer();
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  std::string garbage(kFrameHeaderSize, '\xFF');
  ASSERT_TRUE(WriteFull(*fd, garbage.data(), garbage.size(), 2'000).ok());
  Status remote;
  ASSERT_TRUE(ReadErrorFrame(*fd, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kProtocolError);
  // The stream cannot be resynced: the server closes the connection.
  char byte = 0;
  bool clean_eof = false;
  EXPECT_FALSE(ReadFull(*fd, &byte, 1, 2'000, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  CloseSocket(*fd);

  // The server itself is unharmed.
  Client client = MakeClient(server->port());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
}

TEST_F(ServerE2eTest, CrcFlipOverWireIsRejected) {
  auto server = StartServer();
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  KnnRequest request;
  request.query = queries_.front();
  std::string frame =
      EncodeFrame(FrameKind::kKnnRequest, kRawId, EncodeKnnRequest(request));
  frame[kFrameHeaderSize + 3] =
      static_cast<char>(frame[kFrameHeaderSize + 3] ^ 0x10);
  ASSERT_TRUE(WriteFull(*fd, frame.data(), frame.size(), 2'000).ok());
  Status remote;
  ASSERT_TRUE(ReadErrorFrame(*fd, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kProtocolError);
  EXPECT_NE(remote.message().find("checksum"), std::string::npos);
  CloseSocket(*fd);
}

// A query of another dimensionality than the served store's is refused
// with kInvalidArgument before it runs (MinDist would read past a narrower
// query's coordinates), in plain, mutable and sharded mode alike, and the
// connection stays open for the next, valid query.
TEST_F(ServerE2eTest, WrongDimensionalQueryIsRefusedInEveryMode) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 4;
  spec.seed = 4'600;
  const std::vector<Hypersphere> data = GenerateSynthetic(spec);
  SsTree plain(spec.dim);
  ASSERT_TRUE(plain.BulkLoadStr(data).ok());
  MutableSsTree mutable_tree(spec.dim);
  std::vector<uint64_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  ASSERT_TRUE(mutable_tree.Build(data, ids).ok());
  shard::ShardingOptions sharding;
  sharding.shards = 4;
  shard::ShardedStore sharded;
  ASSERT_TRUE(shard::ShardedStore::Build(data, sharding, &sharded).ok());

  std::vector<std::unique_ptr<Server>> servers;
  servers.push_back(
      std::make_unique<Server>(&plain, criterion_.get(), ServerOptions{}));
  servers.push_back(std::make_unique<Server>(&mutable_tree, criterion_.get(),
                                             ServerOptions{}));
  servers.push_back(
      std::make_unique<Server>(&sharded, criterion_.get(), ServerOptions{}));
  auto send_knn = [](int fd, const Hypersphere& query) {
    KnnRequest request;
    request.query = query;
    const std::string frame =
        EncodeFrame(FrameKind::kKnnRequest, kRawId, EncodeKnnRequest(request));
    return WriteFull(fd, frame.data(), frame.size(), 2'000);
  };
  for (auto& server : servers) {
    ASSERT_TRUE(server->Start().ok());
    Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
    ASSERT_TRUE(fd.ok());
    for (const Hypersphere& wrong :
         {Hypersphere({1.0}, 0.5),
          Hypersphere({100.0, 100.0, 100.0, 100.0, 100.0, 100.0}, 0.5)}) {
      ASSERT_TRUE(send_knn(*fd, wrong).ok());
      Status remote;
      ASSERT_TRUE(ReadErrorFrame(*fd, &remote).ok());
      EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument)
          << remote.ToString();
    }
    ASSERT_TRUE(send_knn(*fd, data.front()).ok());
    FrameKind kind = FrameKind::kPingRequest;
    std::string payload;
    ASSERT_TRUE(ReadFrame(*fd, &kind, &payload).ok());
    ASSERT_EQ(kind, FrameKind::kKnnResponse);
    Result<KnnResponse> response = DecodeKnnResponse(payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->answers.empty());
    CloseSocket(*fd);
    server->Stop();
  }
}

TEST_F(ServerE2eTest, OversizedDeclarationIsRejectedBeforeAllocation) {
  ServerOptions options;
  options.max_payload_bytes = 1024;
  auto server = StartServer(options);
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  // A well-formed header declaring a payload over the server's cap.
  std::string frame = EncodeFrame(FrameKind::kKnnRequest, kRawId, {});
  const uint64_t huge = 1ull << 40;
  std::memcpy(frame.data() + 12, &huge, sizeof(huge));
  ASSERT_TRUE(WriteFull(*fd, frame.data(), frame.size(), 2'000).ok());
  Status remote;
  ASSERT_TRUE(ReadErrorFrame(*fd, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kProtocolError);
  EXPECT_NE(remote.message().find("exceeds limit"), std::string::npos);
  CloseSocket(*fd);
}

TEST_F(ServerE2eTest, SlowClientIsDisconnectedNotWaitedOnForever) {
  ServerOptions options;
  options.io_timeout_ms = 150;
  auto server = StartServer(options);
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  // Half a header, then silence: the server's bounded read must give up.
  ASSERT_TRUE(WriteFull(*fd, "HDNP", 4, 2'000).ok());
  char byte = 0;
  bool clean_eof = false;
  const auto start = std::chrono::steady_clock::now();
  const Status read = ReadFull(*fd, &byte, 1, 5'000, &clean_eof);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(clean_eof) << read.ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3'000);
  CloseSocket(*fd);
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
}

TEST_F(ServerE2eTest, ByteDrippingClientCannotHoldAConnectionSlot) {
  ServerOptions options;
  options.io_timeout_ms = 200;
  auto server = StartServer(options);
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  // One byte per 100 ms: every inter-byte gap fits comfortably inside the
  // io timeout, so a per-wait bound would read the whole frame and never
  // give up. The timeout budgets the WHOLE transfer, so the server must
  // cut the connection after ~io_timeout_ms, long before the 24-byte
  // header completes at this drip rate (slow-loris defense).
  const std::string frame = EncodeFrame(FrameKind::kPingRequest, kRawId, {});
  bool dropped = false;
  for (size_t i = 0; i < frame.size(); ++i) {
    if (!WriteFull(*fd, frame.data() + i, 1, 2'000).ok()) {
      dropped = true;  // RST from the server's close
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!dropped) {
    // Writes can land in the socket buffer after the server gave up; the
    // drop then surfaces as EOF (had the server read the whole frame, a
    // pong frame would arrive here instead).
    char byte = 0;
    dropped = !ReadFull(*fd, &byte, 1, 2'000).ok();
  }
  EXPECT_TRUE(dropped);
  CloseSocket(*fd);
  EXPECT_GE(server->counters().protocol_errors.load(), 1u);
  // The freed slot serves the next client normally.
  Client client = MakeClient(server->port());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerE2eTest, ConnectionLimitShedsAtAccept) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  Client first = MakeClient(server->port());
  ASSERT_TRUE(first.Ping().ok());  // occupies the one connection slot

  // The second connection is told kOverloaded at accept and closed; the
  // frame arrives without the client sending anything (reading rather
  // than writing also avoids racing the server's immediate close).
  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());
  Status remote;
  ASSERT_TRUE(ReadErrorFrame(*fd, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kOverloaded);
  CloseSocket(*fd);
  EXPECT_GE(server->counters().requests_shed.load(), 1u);
}

// The accept-time shed frame carries request ID 0 and the server closes
// the connection after it, so the client reconnects for every attempt:
// each one reaches the server and is shed, and the call returns
// kOverloaded whatever its attempt count (not an IO error from re-sending
// on the dead socket).
TEST_F(ServerE2eTest, ConnectionLimitShedsEveryAttempt) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  Client holder = MakeClient(server->port());
  ASSERT_TRUE(holder.Ping().ok());  // occupies the one connection slot

  for (int attempts : {2, 4}) {
    SCOPED_TRACE(attempts);
    const uint64_t shed_before = server->counters().requests_shed.load();
    Client client = MakeClient(server->port(), attempts);
    const Status pinged = client.Ping();
    EXPECT_EQ(pinged.code(), StatusCode::kOverloaded) << pinged.ToString();
    EXPECT_EQ(client.last_attempts(), attempts);
    EXPECT_EQ(server->counters().requests_shed.load() - shed_before,
              static_cast<uint64_t>(attempts));
  }
}

TEST_F(ServerE2eTest, SingleShotFaultsRecoverViaClientRetry) {
  // Sweep every server fault site: arm a single-shot fault, prove the
  // injected failure is contained (no crash, no hang) and that the
  // client's retry logic recovers the request end to end.
  auto server = StartServer();
  KnnRequest request;
  request.query = queries_.front();
  request.k = 10;
  const KnnResult direct = DirectSearch(request.query, request.k);

  for (const char* site :
       {"server/accept", "server/read", "server/write", "server/enqueue"}) {
    SCOPED_TRACE(site);
    FaultRegistry::Instance().ArmSite(site);
    Client client = MakeClient(server->port());
    Result<KnnResponse> response = client.Knn(request);
    ASSERT_TRUE(response.ok())
        << site << ": " << response.status().ToString();
    EXPECT_EQ(FaultRegistry::Instance().injected(), 1u)
        << site << " never fired";
    ASSERT_EQ(response->answers.size(), direct.answers.size());
    for (size_t i = 0; i < direct.answers.size(); ++i) {
      EXPECT_EQ(response->answers[i].id, direct.answers[i].id);
    }
    FaultRegistry::Instance().Reset();
  }
}

TEST_F(ServerE2eTest, PersistentFaultsFailCleanAndRecoverOnDisarm) {
  // Every site firing on every execution: requests fail with a clean
  // Status (never a crash or hang), and the moment the registry is
  // disarmed the same server serves again.
  auto server = StartServer();
  KnnRequest request;
  request.query = queries_.front();
  FaultRegistry::Instance().ArmRandom(/*seed=*/1, /*probability=*/1.0);
  Client failing = MakeClient(server->port(), /*max_attempts=*/2);
  Result<KnnResponse> blocked = failing.Knn(request);
  EXPECT_FALSE(blocked.ok());

  FaultRegistry::Instance().Reset();
  Client recovered = MakeClient(server->port());
  Result<KnnResponse> response = recovered.Knn(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

TEST_F(ServerE2eTest, CountersTrackTraffic) {
  auto server = StartServer();
  {
    Client client = MakeClient(server->port());
    ASSERT_TRUE(client.Ping().ok());
    KnnRequest request;
    request.query = queries_.front();
    ASSERT_TRUE(client.Knn(request).ok());
  }
  server->Stop();
  const ServerCounters& counters = server->counters();
  EXPECT_EQ(counters.connections_accepted.load(), 1u);
  EXPECT_EQ(counters.requests_served.load(), 1u);
  EXPECT_EQ(counters.active_connections.load(), 0);
  EXPECT_EQ(counters.protocol_errors.load(), 0u);
}

TEST_F(ServerE2eTest, StopIsIdempotentAndStartAfterStopWorks) {
  ServerOptions options;
  auto server = StartServer(options);
  const uint16_t first_port = server->port();
  EXPECT_GT(first_port, 0);
  server->Stop();
  server->Stop();  // idempotent

  // A fresh server binds and serves again (resources were released).
  auto second = StartServer(options);
  Client client = MakeClient(second->port());
  EXPECT_TRUE(client.Ping().ok());
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

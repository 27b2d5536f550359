// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// HDNP request-ID correlation: the ID prefix round trip, a fresh ID on
// every client call, error and shed frames echoing the request's ID,
// waiting requests admitted in arrival order (told apart by their IDs), a
// frame sent before the ID is read (a refused version-1 header) echoing
// ID 0 and closing the connection, and a genuine protocol error leaving
// the client's later calls with their IDs.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"

namespace hyperdom {
namespace server {
namespace {

// DecodeFrameHeader validates exactly kFrameHeaderSize bytes.
std::string_view HeaderBytes(const std::string& frame) {
  return std::string_view(frame.data(), kFrameHeaderSize);
}

TEST(ProtocolV2Test, RequestIdRoundTrip) {
  const std::string payload = "the payload";
  const uint64_t id = 0xDEADBEEFCAFEF00Dull;
  const std::string frame = EncodeFrame(FrameKind::kKnnRequest, id, payload);
  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->kind, FrameKind::kKnnRequest);
  // The wire payload is the 8-byte ID prefix plus the caller's payload,
  // and the CRC covers both.
  const std::string wire_payload = frame.substr(kFrameHeaderSize);
  ASSERT_EQ(wire_payload.size(), sizeof(uint64_t) + payload.size());
  ASSERT_TRUE(VerifyPayloadCrc(*header, wire_payload).ok());
  std::string_view body(wire_payload);
  uint64_t extracted = 0;
  ASSERT_TRUE(ExtractRequestId(&body, &extracted).ok());
  EXPECT_EQ(extracted, id);
  EXPECT_EQ(body, payload);

  // A payload that cannot hold the ID prefix is malformed.
  std::string_view short_body("abcd");
  EXPECT_EQ(ExtractRequestId(&short_body, &extracted).code(),
            StatusCode::kProtocolError);
}

class InteropTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.n = 2'000;
    spec.dim = 3;
    spec.radius_mean = 10.0;
    spec.center_mean = 100.0;
    spec.center_stddev = 30.0;
    spec.seed = 9'100;
    data_ = GenerateSynthetic(spec);
    tree_ = std::make_unique<SsTree>(spec.dim);
    ASSERT_TRUE(tree_->BulkLoadStr(data_).ok());
    criterion_ = MakeCriterion(CriterionKind::kHyperbola);
    queries_ = MakeKnnQueries(data_, 8, 9'200);
  }

  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    auto server =
        std::make_unique<Server>(tree_.get(), criterion_.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  KnnRequest MakeRequest(size_t i = 0) const {
    KnnRequest request;
    request.query = queries_[i % queries_.size()];
    request.k = 5;
    return request;
  }

  std::vector<Hypersphere> data_;
  std::unique_ptr<SsTree> tree_;
  std::unique_ptr<const DominanceCriterion> criterion_;
  std::vector<Hypersphere> queries_;
};

TEST_F(InteropTest, V2ClientAgainstV2ServerCarriesIds) {
  auto server = StartServer();
  ClientOptions options;
  options.port = server->port();
  Client client(options);
  ASSERT_TRUE(client.Knn(MakeRequest()).ok());
  const uint64_t first_id = client.last_request_id();
  EXPECT_NE(first_id, 0u) << "every exchange must carry a request ID";
  ASSERT_TRUE(client.Knn(MakeRequest(1)).ok());
  EXPECT_NE(client.last_request_id(), 0u);
  EXPECT_NE(client.last_request_id(), first_id)
      << "each logical call gets a fresh ID";
}

// Reads one frame off a raw socket: the header and the CRC-verified wire
// payload (ID prefix NOT stripped).
Status ReadRawFrame(int fd, FrameHeader* header_out,
                    std::string* payload_out) {
  char header_bytes[kFrameHeaderSize];
  HYPERDOM_RETURN_NOT_OK(
      ReadFull(fd, header_bytes, sizeof(header_bytes), 2000));
  Result<FrameHeader> header = DecodeFrameHeader(
      std::string_view(header_bytes, sizeof(header_bytes)),
      kDefaultMaxPayloadBytes);
  HYPERDOM_RETURN_NOT_OK(header.status());
  payload_out->assign(header->payload_size, '\0');
  if (header->payload_size > 0) {
    HYPERDOM_RETURN_NOT_OK(
        ReadFull(fd, payload_out->data(), payload_out->size(), 2000));
  }
  HYPERDOM_RETURN_NOT_OK(VerifyPayloadCrc(*header, *payload_out));
  *header_out = *header;
  return Status::OK();
}

// Raw exchange helper: sends one pre-encoded frame on a fresh connection,
// returns the response header + raw wire payload.
Status RawExchange(uint16_t port, const std::string& frame,
                   FrameHeader* header_out, std::string* payload_out) {
  Result<int> fd = ConnectWithTimeout("127.0.0.1", port, 2000);
  HYPERDOM_RETURN_NOT_OK(fd.status());
  Status exchanged = WriteFull(*fd, frame.data(), frame.size(), 2000);
  if (exchanged.ok()) exchanged = ReadRawFrame(*fd, header_out, payload_out);
  CloseSocket(*fd);
  return exchanged;
}

// Splits a raw error frame's payload into the echoed ID and the remote
// status.
void DecodeRawError(const std::string& payload, uint64_t* echoed,
                    Status* remote) {
  std::string_view body(payload);
  ASSERT_TRUE(ExtractRequestId(&body, echoed).ok());
  ASSERT_TRUE(DecodeErrorResponse(body, remote).ok());
}

TEST_F(InteropTest, ErrorFramesEchoTheRequestId) {
  auto server = StartServer();
  // A malformed request (undecodable payload) must come back as an error
  // frame echoing the ID.
  const uint64_t id = 0xABCDEF12345678ull;
  const std::string bad =
      EncodeFrame(FrameKind::kKnnRequest, id, "not a knn payload");
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(RawExchange(server->port(), bad, &header, &payload).ok());
  EXPECT_EQ(header.kind, FrameKind::kErrorResponse);
  uint64_t echoed = 0;
  Status remote;
  DecodeRawError(payload, &echoed, &remote);
  EXPECT_EQ(echoed, id);
  EXPECT_EQ(remote.code(), StatusCode::kProtocolError);
}

TEST_F(InteropTest, ShedFramesEchoTheRequestId) {
  // One permit held by a parked request + a wait bound of 1: the third
  // concurrent request is shed, and its kOverloaded frame must echo that
  // request's ID.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  options.admitted_hook = [released](uint64_t) { released.wait(); };
  auto server = StartServer(options);

  // Two fillers: one holds the permit (parked), the other waits for it.
  std::vector<std::thread> fill_threads;
  for (uint64_t id : {11, 12}) {
    const std::string filler = EncodeFrame(FrameKind::kKnnRequest, id,
                                           EncodeKnnRequest(MakeRequest()));
    fill_threads.emplace_back([&server, filler] {
      FrameHeader header;
      std::string payload;
      (void)RawExchange(server->port(), filler, &header, &payload);
    });
  }
  // Wait until one of them waits for the permit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->QueueDepth() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->QueueDepth(), 1u);

  const uint64_t shed_id = 4242;
  const std::string overflow = EncodeFrame(
      FrameKind::kKnnRequest, shed_id, EncodeKnnRequest(MakeRequest(1)));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(
      RawExchange(server->port(), overflow, &header, &payload).ok());
  EXPECT_EQ(header.kind, FrameKind::kErrorResponse);
  uint64_t echoed = 0;
  Status remote;
  DecodeRawError(payload, &echoed, &remote);
  EXPECT_EQ(echoed, shed_id);
  EXPECT_EQ(remote.code(), StatusCode::kOverloaded);

  release.set_value();
  for (std::thread& t : fill_threads) t.join();
}

// Requests that wait for a permit run in arrival order: with the one
// permit held by request 1, requests 2, 3 and 4 arrive one at a time, and
// the admission hook sees them in that order once request 1 finishes.
TEST_F(InteropTest, WaitingRequestsRunInArrivalOrder) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::mutex ran_mu;
  std::vector<uint64_t> ran;
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 8;
  options.admitted_hook = [&ran_mu, &ran, released](uint64_t request_id) {
    {
      std::lock_guard<std::mutex> lock(ran_mu);
      ran.push_back(request_id);
    }
    if (request_id == 1) released.wait();
  };
  auto server = StartServer(options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto wait_until = [&deadline](const std::function<bool()>& done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::thread> senders;
  for (uint64_t id = 1; id <= 4; ++id) {
    const std::string frame = EncodeFrame(
        FrameKind::kKnnRequest, id, EncodeKnnRequest(MakeRequest(id)));
    senders.emplace_back([&server, frame] {
      FrameHeader header;
      std::string payload;
      EXPECT_TRUE(RawExchange(server->port(), frame, &header, &payload).ok());
      EXPECT_EQ(header.kind, FrameKind::kKnnResponse);
    });
    if (id == 1) {
      // Request 1 holds the permit once the hook has seen it.
      wait_until([&] {
        std::lock_guard<std::mutex> lock(ran_mu);
        return !ran.empty();
      });
    } else {
      wait_until([&] { return server->QueueDepth() == id - 1; });
    }
  }
  EXPECT_EQ(server->QueueDepth(), 3u);

  release.set_value();
  for (std::thread& t : senders) t.join();
  std::lock_guard<std::mutex> lock(ran_mu);
  EXPECT_EQ(ran, (std::vector<uint64_t>{1, 2, 3, 4}));
}

// A retired version-1 frame (no request-ID prefix) is refused before any
// ID is read: a kProtocolError frame echoing ID 0 that names the version,
// then a close. The server goes on serving.
TEST_F(InteropTest, V1FrameIsRefusedWithIdZero) {
  auto server = StartServer();
  // A version-1 ping: the same 24-byte header over an empty payload.
  std::string v1_ping = EncodeFrame(FrameKind::kPingRequest, 0, {});
  v1_ping.resize(kFrameHeaderSize);
  const uint32_t version = 1;
  const uint64_t payload_size = 0;
  const uint32_t empty_crc = 0;  // CRC-32 of no bytes
  std::memcpy(v1_ping.data() + 4, &version, sizeof(version));
  std::memcpy(v1_ping.data() + 12, &payload_size, sizeof(payload_size));
  std::memcpy(v1_ping.data() + 20, &empty_crc, sizeof(empty_crc));

  Result<int> fd = ConnectWithTimeout("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFull(*fd, v1_ping.data(), v1_ping.size(), 2000).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(ReadRawFrame(*fd, &header, &payload).ok());
  EXPECT_EQ(header.kind, FrameKind::kErrorResponse);
  uint64_t echoed = 99;
  Status remote;
  DecodeRawError(payload, &echoed, &remote);
  EXPECT_EQ(echoed, 0u);
  EXPECT_EQ(remote.code(), StatusCode::kProtocolError);
  EXPECT_NE(remote.message().find("unsupported protocol version 1"),
            std::string::npos)
      << remote.ToString();
  char byte = 0;
  bool clean_eof = false;
  EXPECT_FALSE(ReadFull(*fd, &byte, 1, 2000, &clean_eof).ok());
  EXPECT_TRUE(clean_eof) << "the connection must be closed";
  CloseSocket(*fd);

  ClientOptions options;
  options.port = server->port();
  Client client(options);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server->counters().protocol_errors.load(), 1u);
}

// A genuine protocol error on a client's first call is returned once and
// costs nothing later: the request is not re-sent in another format, and
// the client's next call still carries a request ID.
TEST_F(InteropTest, GenuineProtocolErrorKeepsRequestIds) {
  ServerOptions server_options;
  server_options.max_payload_bytes = 64;
  auto server = StartServer(server_options);
  ClientOptions options;
  options.port = server->port();
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 20;
  Client client(options);

  // d = 8: a 104-byte kNN payload, 112 bytes with the ID prefix.
  KnnRequest request;
  request.query = Hypersphere(std::vector<double>(8, 1.0), 0.5);
  Result<KnnResponse> refused = client.Knn(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(refused.status().message().find(
                "payload size 112 exceeds limit 64"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(client.last_attempts(), 1);
  EXPECT_EQ(server->counters().protocol_errors.load(), 1u);

  ASSERT_TRUE(client.Ping().ok());
  EXPECT_NE(client.last_request_id(), 0u);
  EXPECT_EQ(server->counters().protocol_errors.load(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Loopback end-to-end tests for the mutable-mode server: insert/remove
// frames applied through the admission queue, kNN answers tracking the
// mutations, kNotSupported from a read-only server, expired mutation
// budgets refused un-applied, and protocol-level codec round-trips of the
// new frame kinds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "index/mutable_ss_tree.h"
#include "query/mut_query.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace hyperdom {
namespace server {
namespace {

class ServerMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().Reset();
    SyntheticSpec spec;
    spec.n = 500;
    spec.dim = 3;
    spec.radius_mean = 10.0;
    spec.center_mean = 100.0;
    spec.center_stddev = 30.0;
    spec.seed = 5'600;
    data_ = GenerateSynthetic(spec);
    tree_ = std::make_unique<MutableSsTree>(spec.dim);
    std::vector<uint64_t> ids(data_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    ASSERT_TRUE(tree_->Build(data_, ids).ok());
    criterion_ = MakeCriterion(CriterionKind::kHyperbola);
  }

  void TearDown() override { FaultRegistry::Instance().Reset(); }

  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    auto server =
        std::make_unique<Server>(tree_.get(), criterion_.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  Client MakeClient(uint16_t port) {
    ClientOptions options;
    options.port = port;
    options.backoff_base_ms = 1;
    options.backoff_max_ms = 20;
    return Client(options);
  }

  std::vector<Hypersphere> data_;
  std::unique_ptr<MutableSsTree> tree_;
  std::unique_ptr<const DominanceCriterion> criterion_;
};

TEST_F(ServerMutationTest, InsertRemoveRoundTripOverTheWire) {
  auto server = StartServer();
  Client client = MakeClient(server->port());

  const uint64_t version_before = tree_->version();
  InsertRequest insert;
  insert.id = 100'000;
  insert.sphere = Hypersphere({1.0, 2.0, 3.0}, 0.5);
  Result<MutateResponse> inserted = client.Insert(insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->version, version_before + 1);
  EXPECT_EQ(inserted->live, data_.size() + 1);
  EXPECT_EQ(tree_->live_size(), data_.size() + 1);

  RemoveRequest remove;
  remove.id = 100'000;
  Result<MutateResponse> removed = client.Remove(remove);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->version, version_before + 2);
  EXPECT_EQ(removed->live, data_.size());
  server->Stop();
}

TEST_F(ServerMutationTest, KnnOverTheWireSeesAppliedMutations) {
  auto server = StartServer();
  Client client = MakeClient(server->port());

  // Plant a sphere dead-center on the query: it must dominate the answer.
  const Hypersphere query({500.0, 500.0, 500.0}, 0.1);
  InsertRequest insert;
  insert.id = 777'000;
  insert.sphere = Hypersphere({500.0, 500.0, 500.0}, 0.1);
  ASSERT_TRUE(client.Insert(insert).ok());

  KnnRequest request;
  request.k = 1;
  request.query = query;
  Result<KnnResponse> answer = client.Knn(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  std::set<uint64_t> ids;
  for (const auto& e : answer->answers) ids.insert(e.id);
  EXPECT_EQ(ids.count(777'000), 1u);

  // And the wire answer matches the in-process mutable searcher exactly.
  KnnOptions options;
  options.k = 1;
  const auto direct = MutableKnn(*tree_, *criterion_, options, query);
  std::set<uint64_t> direct_ids;
  for (const auto& e : direct.result.answers) direct_ids.insert(e.id);
  EXPECT_EQ(ids, direct_ids);

  RemoveRequest remove;
  remove.id = 777'000;
  ASSERT_TRUE(client.Remove(remove).ok());
  answer = client.Knn(request);
  ASSERT_TRUE(answer.ok());
  ids.clear();
  for (const auto& e : answer->answers) ids.insert(e.id);
  EXPECT_EQ(ids.count(777'000), 0u) << "removed row still answered";
  server->Stop();
}

TEST_F(ServerMutationTest, MutationFailuresComeBackAsCleanStatuses) {
  auto server = StartServer();
  Client client = MakeClient(server->port());

  // Duplicate id -> InvalidArgument (also the at-least-once dedupe
  // signal documented on Client::Insert).
  InsertRequest insert;
  insert.id = 3;  // seeded as a base row id
  insert.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  EXPECT_EQ(client.Insert(insert).status().code(),
            StatusCode::kInvalidArgument);

  // Unknown id -> NotFound.
  RemoveRequest remove;
  remove.id = 999'999;
  EXPECT_EQ(client.Remove(remove).status().code(), StatusCode::kNotFound);

  // Dimension mismatch -> InvalidArgument.
  InsertRequest wrong_dim;
  wrong_dim.id = 500'000;
  wrong_dim.sphere = Hypersphere({1.0, 1.0}, 0.5);
  EXPECT_EQ(client.Insert(wrong_dim).status().code(),
            StatusCode::kInvalidArgument);

  // Frozen store -> kConflict (the CLI maps this to exit code 6).
  tree_->Freeze();
  InsertRequest frozen;
  frozen.id = 600'000;
  frozen.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  EXPECT_EQ(client.Insert(frozen).status().code(), StatusCode::kConflict);
  tree_->Thaw();
  server->Stop();
}

TEST_F(ServerMutationTest, ReadOnlyServerRejectsMutationFrames) {
  // A server over the plain SsTree: mutation frames answer kNotSupported
  // and the connection survives for further queries.
  SsTree read_only(3);
  ASSERT_TRUE(read_only.BulkLoadStr(data_).ok());
  Server server(&read_only, criterion_.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  InsertRequest insert;
  insert.id = 1'000'000;
  insert.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  EXPECT_EQ(client.Insert(insert).status().code(),
            StatusCode::kNotSupported);

  KnnRequest request;
  request.k = 3;
  request.query = data_.front();
  EXPECT_TRUE(client.Knn(request).ok());
  server.Stop();
}

TEST_F(ServerMutationTest, ExpiredMutationBudgetIsRefusedUnapplied) {
  // The admitted insert is held 2 ms before it is processed, so its 1 us
  // budget has run out by the time it would be applied.
  ServerOptions options;
  options.admitted_hook = [](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  auto server = StartServer(options);
  Client client = MakeClient(server->port());

  const size_t live_before = tree_->live_size();
  InsertRequest insert;
  insert.id = 800'000;
  insert.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  insert.budget_micros = 1;  // burns away before it is applied
  const Status status = client.Insert(insert).status();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_EQ(tree_->live_size(), live_before)
      << "an expired mutation must not be applied late";
  server->Stop();
}

// A budget too large for the clock is no deadline at all: the kNN answer
// is exact and a mutation is applied (as a nanosecond count, any budget
// from 2^63 ns on would overflow into the past).
TEST_F(ServerMutationTest, BudgetsPastTheClockNeverExpire) {
  auto server = StartServer();
  Client client = MakeClient(server->port());
  constexpr uint64_t kForever = std::numeric_limits<uint64_t>::max();

  KnnRequest request;
  request.k = 5;
  request.query = data_[7];
  const Result<KnnResponse> unbounded = client.Knn(request);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  request.budget_micros = kForever;
  const Result<KnnResponse> answer = client.Knn(request);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->completeness, Completeness::kExact);
  ASSERT_EQ(answer->answers.size(), unbounded->answers.size());
  for (size_t i = 0; i < answer->answers.size(); ++i) {
    EXPECT_EQ(answer->answers[i].id, unbounded->answers[i].id);
  }

  InsertRequest insert;
  insert.id = 900'000;
  insert.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  insert.budget_micros = kForever;
  const Result<MutateResponse> inserted = client.Insert(insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->live, data_.size() + 1);
  RemoveRequest remove;
  remove.id = 900'000;
  remove.budget_micros = kForever;
  const Result<MutateResponse> removed = client.Remove(remove);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->live, data_.size());
  server->Stop();
}

TEST_F(ServerMutationTest, MutationsFlowThroughTheAdmissionQueue) {
  // Stall the request holding the single permit so the queue (capacity
  // 1) fills, then verify a mutation is shed with kOverloaded like any
  // query — same admission path, same shed semantics.
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> starts{0};
  options.admitted_hook = [&, released](uint64_t) {
    if (starts.fetch_add(1) == 0) released.wait();
  };
  auto server = StartServer(options);

  ClientOptions copt;
  copt.port = server->port();
  copt.max_attempts = 1;  // surface the shed instead of retrying
  Client slow(copt);
  // Two requests park: the first holds the permit, the second waits in
  // the queue for it.
  std::vector<std::thread> parked;
  for (int i = 0; i < 2; ++i) {
    parked.emplace_back([&] {
      Client c = MakeClient(server->port());
      KnnRequest request;
      request.k = 1;
      request.query = data_.front();
      (void)c.Knn(request);
    });
  }
  // Wait until the second parked request occupies the queue slot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->QueueDepth() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  InsertRequest insert;
  insert.id = 900'000;
  insert.sphere = Hypersphere({1.0, 1.0, 1.0}, 0.5);
  const Status shed = slow.Insert(insert).status();
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded) << shed.ToString();

  release.set_value();
  for (std::thread& t : parked) t.join();
  server->Stop();
  EXPECT_GE(server->counters().requests_shed.load(), 1u);
}

// --- codec round-trips of the new frame kinds ----------------------------

TEST(MutationProtocolTest, InsertRequestRoundTrips) {
  InsertRequest request;
  request.budget_micros = 12'345;
  request.id = 0xDEADBEEF;
  request.sphere = Hypersphere({1.5, -2.25, 1e300}, 0.125);
  const std::string payload = EncodeInsertRequest(request);
  Result<InsertRequest> decoded = DecodeInsertRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->budget_micros, request.budget_micros);
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->sphere, request.sphere);
}

TEST(MutationProtocolTest, RemoveAndMutateResponseRoundTrip) {
  RemoveRequest remove;
  remove.budget_micros = 99;
  remove.id = 42;
  Result<RemoveRequest> r = DecodeRemoveRequest(EncodeRemoveRequest(remove));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->budget_micros, 99u);
  EXPECT_EQ(r->id, 42u);

  MutateResponse response;
  response.version = 7;
  response.live = 1'000;
  Result<MutateResponse> m =
      DecodeMutateResponse(EncodeMutateResponse(response));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->version, 7u);
  EXPECT_EQ(m->live, 1'000u);
}

TEST(MutationProtocolTest, MalformedMutationPayloadsAreProtocolErrors) {
  InsertRequest request;
  request.id = 1;
  request.sphere = Hypersphere({1.0, 2.0}, 0.5);
  const std::string good = EncodeInsertRequest(request);
  // Truncation at every byte boundary must yield a clean ProtocolError.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Result<InsertRequest> decoded =
        DecodeInsertRequest(std::string_view(good).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeInsertRequest(good + "x").ok());
  EXPECT_FALSE(DecodeRemoveRequest(std::string(EncodeRemoveRequest(
                                       RemoveRequest{})) + "x")
                   .ok());
}

TEST(MutationProtocolTest, ConflictStatusCrossesTheWire) {
  const std::string payload =
      EncodeErrorResponse(Status::Conflict("store is compacting"));
  Status remote;
  ASSERT_TRUE(DecodeErrorResponse(payload, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kConflict);
  EXPECT_NE(remote.message().find("compacting"), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

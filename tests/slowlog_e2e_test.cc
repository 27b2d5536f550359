// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// End-to-end request-ID correlation: a query slow enough to trip the
// slow-query threshold must produce EXACTLY one hyperdom-slowlog-v1
// record whose request_id equals the ID the client sent (and got echoed
// on its response frame), and the same ID must appear annotated on both
// the client-side and server-side spans.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "eval/workload.h"
#include "index/ss_tree.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

namespace hyperdom {
namespace server {
namespace {

class SlowlogE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.n = 3'000;
    spec.dim = 3;
    spec.radius_mean = 10.0;
    spec.center_mean = 100.0;
    spec.center_stddev = 30.0;
    spec.seed = 9'700;
    data_ = GenerateSynthetic(spec);
    tree_ = std::make_unique<SsTree>(spec.dim);
    ASSERT_TRUE(tree_->BulkLoadStr(data_).ok());
    criterion_ = MakeCriterion(CriterionKind::kHyperbola);
    queries_ = MakeKnnQueries(data_, 4, 9'800);
  }

  void TearDown() override {
    obs::Logger::Instance().SetCallbackSink(nullptr);
    obs::Logger::Instance().SetLevel(obs::LogLevel::kWarn);
    obs::Tracer::Instance().Disable();
  }

  std::vector<Hypersphere> data_;
  std::unique_ptr<SsTree> tree_;
  std::unique_ptr<const DominanceCriterion> criterion_;
  std::vector<Hypersphere> queries_;
};

// Pulls "\"key\":<digits>" out of a JSON line; 0 when absent.
uint64_t JsonU64Field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST_F(SlowlogE2eTest, SlowQueryRecordMatchesEchoedRequestId) {
  std::vector<std::string> slowlog_lines;
  obs::Logger::Instance().SetLevel(obs::LogLevel::kWarn);
  obs::Logger::Instance().SetCallbackSink(
      [&slowlog_lines](const std::string& line) {
        if (line.find("hyperdom-slowlog-v1") != std::string::npos) {
          slowlog_lines.push_back(line);
        }
      });
  obs::Tracer::Instance().Enable();

  ServerOptions options;
  options.slow_query_micros = 1;  // every query is "slow"
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.port = server.port();
  Client client(client_options);
  KnnRequest request;
  request.query = queries_[0];
  request.k = 10;
  auto response = client.Knn(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const uint64_t request_id = client.last_request_id();
  ASSERT_NE(request_id, 0u) << "v2 exchange must have carried an ID";

  server.Stop();
  obs::Tracer::Instance().Disable();

  // Exactly one slow-query record, carrying the client's request ID.
  ASSERT_EQ(slowlog_lines.size(), 1u);
  const std::string& record = slowlog_lines[0];
  EXPECT_EQ(JsonU64Field(record, "request_id"), request_id);
  EXPECT_EQ(JsonU64Field(record, "threshold_ns"), 1'000u);
  EXPECT_GE(JsonU64Field(record, "latency_ns"), 1'000u);
  EXPECT_NE(record.find("\"index\":\"ss\""), std::string::npos);
  EXPECT_EQ(JsonU64Field(record, "k"), 10u);
  EXPECT_NE(record.find("\"completeness\":1"), std::string::npos);
  EXPECT_EQ(server.counters().slow_queries.load(), 1u);

  // Both sides' spans carry the same ID annotation.
  const std::string id_text = std::to_string(request_id);
  bool client_span = false, server_span = false;
  for (const obs::TraceRecord& span : obs::Tracer::Instance().Records()) {
    bool has_id = false;
    for (const obs::TraceArg& arg : span.args) {
      if (arg.key == "request_id" && arg.value == id_text) has_id = true;
    }
    if (!has_id) continue;
    if (span.name == "client/call") client_span = true;
    if (span.name == "server/request") server_span = true;
  }
  EXPECT_TRUE(client_span) << "no client/call span annotated with the ID";
  EXPECT_TRUE(server_span) << "no server/request span annotated with the ID";
}

// The request histogram's time for a kNN request contains the request's
// server/request span: the span closes before the response is encoded and
// the histogram records after the encode. A slow-query record carries the
// same elapsed time the histogram records, so joining the records and the
// spans on request_id compares the two per request.
TEST_F(SlowlogE2eTest, RequestHistogramTimeContainsTheRequestSpan) {
  std::vector<std::string> slowlog_lines;
  obs::Logger::Instance().SetLevel(obs::LogLevel::kWarn);
  obs::Logger::Instance().SetCallbackSink(
      [&slowlog_lines](const std::string& line) {
        if (line.find("hyperdom-slowlog-v1") != std::string::npos) {
          slowlog_lines.push_back(line);
        }
      });
  obs::Tracer::Instance().Enable();

  ServerOptions options;
  options.slow_query_micros = 1;  // every query is "slow"
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.port = server.port();
  Client client(client_options);
  constexpr size_t kRequests = 40;
  for (size_t i = 0; i < kRequests; ++i) {
    KnnRequest request;
    request.query = queries_[i % queries_.size()];
    request.k = 10;
    ASSERT_TRUE(client.Knn(request).ok());
  }
  server.Stop();
  obs::Tracer::Instance().Disable();

  std::unordered_map<uint64_t, uint64_t> histogram_ns;
  for (const std::string& line : slowlog_lines) {
    histogram_ns[JsonU64Field(line, "request_id")] =
        JsonU64Field(line, "latency_ns");
  }
  ASSERT_EQ(histogram_ns.size(), kRequests);
  size_t joined = 0;
  for (const obs::TraceRecord& span : obs::Tracer::Instance().Records()) {
    if (span.name != "server/request") continue;
    for (const obs::TraceArg& arg : span.args) {
      if (arg.key != "request_id") continue;
      const auto it = histogram_ns.find(std::stoull(arg.value));
      ASSERT_NE(it, histogram_ns.end()) << "request " << arg.value;
      EXPECT_GE(it->second, static_cast<uint64_t>(span.dur_ns))
          << "request " << arg.value;
      ++joined;
    }
  }
  EXPECT_EQ(joined, kRequests);
}

TEST_F(SlowlogE2eTest, FastQueriesBelowThresholdEmitNothing) {
  std::vector<std::string> slowlog_lines;
  obs::Logger::Instance().SetLevel(obs::LogLevel::kWarn);
  obs::Logger::Instance().SetCallbackSink(
      [&slowlog_lines](const std::string& line) {
        if (line.find("hyperdom-slowlog-v1") != std::string::npos) {
          slowlog_lines.push_back(line);
        }
      });

  ServerOptions options;
  options.slow_query_micros = 60'000'000;  // one minute: nothing trips it
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.port = server.port();
  Client client(client_options);
  KnnRequest request;
  request.query = queries_[1];
  request.k = 5;
  ASSERT_TRUE(client.Knn(request).ok());
  server.Stop();
  EXPECT_TRUE(slowlog_lines.empty());
  EXPECT_EQ(server.counters().slow_queries.load(), 0u);
}

TEST_F(SlowlogE2eTest, DisabledByDefault) {
  std::vector<std::string> slowlog_lines;
  obs::Logger::Instance().SetCallbackSink(
      [&slowlog_lines](const std::string& line) {
        if (line.find("hyperdom-slowlog-v1") != std::string::npos) {
          slowlog_lines.push_back(line);
        }
      });
  ServerOptions options;  // slow_query_micros defaults to 0 = off
  Server server(tree_.get(), criterion_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.port = server.port();
  Client client(client_options);
  KnnRequest request;
  request.query = queries_[2];
  request.k = 5;
  ASSERT_TRUE(client.Knn(request).ok());
  server.Stop();
  EXPECT_TRUE(slowlog_lines.empty());
  EXPECT_EQ(server.counters().slow_queries.load(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace hyperdom

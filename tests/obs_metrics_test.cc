// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Registry-level tests: histogram bucket boundaries, shard-merge
// correctness under concurrent writers, export shapes, and the
// zero-allocation guarantee on the counter/histogram hot path.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"

namespace hyperdom {
namespace obs {
namespace {

TEST(HistogramTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  // Every power-of-two boundary: 2^k - 1 stays in bucket k, 2^k moves to
  // bucket k + 1.
  for (size_t k = 1; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(pow - 1), k) << "k = " << k;
    EXPECT_EQ(Histogram::BucketIndex(pow), k + 1) << "k = " << k;
  }
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketUpperBoundMatchesIndex) {
  // A value must land in a bucket whose inclusive upper bound covers it,
  // and must not fit in the previous bucket.
  for (uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                         uint64_t{7}, uint64_t{8}, uint64_t{1000},
                         uint64_t{1} << 40}) {
    const size_t i = Histogram::BucketIndex(value);
    EXPECT_LE(value, HistogramSnapshot::BucketUpperBound(i));
    if (i > 0) {
      EXPECT_GT(value, HistogramSnapshot::BucketUpperBound(i - 1));
    }
  }
}

TEST(HistogramTest, SnapshotCountsAndSum) {
  Histogram* h = MetricsRegistry::Instance().GetHistogram(
      "test_histogram_snapshot_ns");
  h->Record(0);
  h->Record(1);
  h->Record(3);
  h->Record(3);
  h->Record(1000);
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 0u + 1 + 3 + 3 + 1000);
  EXPECT_EQ(snap.buckets[0], 1u);  // the 0
  EXPECT_EQ(snap.buckets[1], 1u);  // the 1
  EXPECT_EQ(snap.buckets[2], 2u);  // both 3s
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(1000)], 1u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1007.0 / 5.0);
}

TEST(CounterTest, ShardMergeAcrossThreads) {
  Counter* c =
      MetricsRegistry::Instance().GetCounter("test_shard_merge_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kIncrements);
}

TEST(HistogramTest, ShardMergeAcrossThreads) {
  Histogram* h = MetricsRegistry::Instance().GetHistogram(
      "test_histogram_shard_merge_ns");
  constexpr int kThreads = 8;
  constexpr int kRecords = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h->Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kRecords);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += uint64_t{kRecords} * static_cast<uint64_t>(t + 1);
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(CounterTest, HotPathDoesNotAllocate) {
  auto& registry = MetricsRegistry::Instance();
  Counter* c = registry.GetCounter("test_zero_alloc_total");
  Histogram* h = registry.GetHistogram("test_zero_alloc_ns");
  // Warm the thread's shard assignment (first use initializes a
  // thread_local) before measuring.
  c->Inc();
  h->Record(1);
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 10'000; ++i) {
    c->Inc();
    c->Add(3);
    h->Record(i);
  }
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "counter/histogram hot path allocated on the heap";
}

TEST(GaugeTest, SetValueReset) {
  Gauge* g = MetricsRegistry::Instance().GetGauge("test_gauge_entries");
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  g->Set(42.5);
  EXPECT_DOUBLE_EQ(g->Value(), 42.5);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(RegistryTest, LabeledNameAndLookupStability) {
  EXPECT_EQ(LabeledName("base_total", "index", "ss"),
            "base_total{index=\"ss\"}");
  auto& registry = MetricsRegistry::Instance();
  Counter* a = registry.GetCounter("test_stable_total", "help text");
  Counter* b = registry.GetCounter("test_stable_total");
  EXPECT_EQ(a, b);  // same name -> same instrument, pointers stay valid
}

TEST(RegistryTest, ResetAllZeroesButKeepsRegistrations) {
  auto& registry = MetricsRegistry::Instance();
  Counter* c = registry.GetCounter("test_resetall_total");
  c->Add(7);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("test_resetall_total"), c);
}

TEST(RegistryTest, PrometheusExportShape) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test_prom_total{index=\"ss\"}", "a counter")->Add(3);
  Histogram* h = registry.GetHistogram("test_prom_ns{op=\"save\"}", "a hist");
  h->Record(0);
  h->Record(5);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP test_prom_total a counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total{index=\"ss\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_ns histogram"), std::string::npos);
  // Labels merge with le=, buckets are cumulative, +Inf is mandatory.
  EXPECT_NE(text.find("test_prom_ns_bucket{op=\"save\",le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_ns_bucket{op=\"save\",le=\"7\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_ns_bucket{op=\"save\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_ns_sum{op=\"save\"} 5"), std::string::npos);
  EXPECT_NE(text.find("test_prom_ns_count{op=\"save\"} 2"),
            std::string::npos);
}

TEST(RegistryTest, JsonExportShape) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test_json_total")->Add(11);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"schema\": \"hyperdom-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(CatalogueTest, NamesAreUniqueAndWellFormed) {
  const auto& catalogue = MetricCatalogue();
  ASSERT_FALSE(catalogue.empty());
  std::vector<std::string> names;
  for (const MetricDef& def : catalogue) {
    names.emplace_back(def.name);
    EXPECT_EQ(std::string(def.name).find("hyperdom_"), 0u) << def.name;
    EXPECT_NE(std::string(def.help), "") << def.name;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "duplicate metric name in the catalogue";
}

}  // namespace
}  // namespace obs
}  // namespace hyperdom

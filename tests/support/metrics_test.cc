// Copyright 2026 The Tyche Reproduction Authors.
// Metrics registry: striped counters under concurrency, and the Prometheus
// text exposition format (golden strings for escaping and label syntax).

#include "src/support/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace tyche {
namespace {

TEST(StripedCounterTest, AddAndValue) {
  StripedCounter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(StripedCounterTest, ConcurrentWritersSumExactly) {
  StripedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Add();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(StripedCounterTest, ConcurrentWritersSpreadOverStripes) {
  // The anti-contention property itself: concurrent threads must land on
  // more than one cache-line cell. Threads take round-robin stripe ids at
  // first use, so 8 fresh threads cannot all share a stripe; assert >= 2
  // nonzero stripes rather than exactly 8 to stay robust against threads
  // the process already numbered.
  StripedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] { counter.Add(1000); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto stripes = counter.StripeValues();
  const int nonzero = static_cast<int>(
      std::count_if(stripes.begin(), stripes.end(), [](uint64_t v) { return v > 0; }));
  EXPECT_GE(nonzero, 2) << "8 threads landed on a single stripe";
  EXPECT_EQ(counter.Value(), 8000u);
}

TEST(StripedCounterTest, ThreadChurnConservesCounts) {
  // Short-lived threads re-use stripe slots across waves; counts written by
  // a dead thread must survive in the cells (not TLS), and a new thread
  // adopting the slot must accumulate on top, never clobber.
  StripedCounter counter;
  constexpr int kWaves = 16;
  constexpr int kThreadsPerWave = 4;
  constexpr int kIncrements = 5000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kThreadsPerWave);
    for (int t = 0; t < kThreadsPerWave; ++t) {
      threads.emplace_back([&counter] {
        for (int i = 0; i < kIncrements; ++i) {
          counter.Add();
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kWaves) * kThreadsPerWave * kIncrements);
}

TEST(MetricsRegistryTest, CounterPointerIsStableAndSharedByName) {
  MetricsRegistry registry;
  StripedCounter* a = registry.AddCounter("tyche_x_total", "x");
  StripedCounter* b = registry.AddCounter("tyche_x_total", "x");
  EXPECT_EQ(a, b);  // same (name, labels) -> same cell
  StripedCounter* labeled =
      registry.AddCounter("tyche_x_total", "x", {{"op", "create"}});
  EXPECT_NE(a, labeled);
}

TEST(MetricsRegistryTest, PrometheusGoldenFormat) {
  MetricsRegistry registry;
  registry.AddCounter("tyche_calls_total", "ABI calls", {{"op", "create"}})->Add(3);
  registry.AddCounter("tyche_calls_total", "ABI calls", {{"op", "revoke"}})->Add(1);
  registry.AddGauge("tyche_alive", "live domains")->Set(2);

  const std::string text = registry.ExportPrometheus();
  // Families render sorted by name, HELP/TYPE once, children in
  // registration order. This is the exact scrape contract.
  const std::string expected =
      "# HELP tyche_alive live domains\n"
      "# TYPE tyche_alive gauge\n"
      "tyche_alive 2\n"
      "# HELP tyche_calls_total ABI calls\n"
      "# TYPE tyche_calls_total counter\n"
      "tyche_calls_total{op=\"create\"} 3\n"
      "tyche_calls_total{op=\"revoke\"} 1\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistryTest, EscapingGolden) {
  EXPECT_EQ(PromEscapeHelp("back\\slash and\nnewline"), "back\\\\slash and\\nnewline");
  EXPECT_EQ(PromEscapeLabelValue("say \"hi\"\\\n"), "say \\\"hi\\\"\\\\\\n");

  MetricsRegistry registry;
  registry.AddCounter("tyche_esc_total", "help with \\ and\nbreak",
                      {{"site", "a\"b\\c"}});
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# HELP tyche_esc_total help with \\\\ and\\nbreak\n"),
            std::string::npos);
  EXPECT_NE(text.find("tyche_esc_total{site=\"a\\\"b\\\\c\"} 0\n"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramRendersCumulativeBuckets) {
  MetricsRegistry registry;
  registry.AddHistogram("tyche_lat_ns", "latency", {{"op", "seal"}}, [] {
    HistogramSnapshot snapshot;
    snapshot.buckets[0] = 2;  // le=1
    snapshot.buckets[2] = 3;  // le=4; the empty le=2 bucket still renders
    snapshot.count = 5;
    snapshot.sum = 14;
    return snapshot;
  });
  const std::string text = registry.ExportPrometheus();
  const std::string expected =
      "# HELP tyche_lat_ns latency\n"
      "# TYPE tyche_lat_ns histogram\n"
      "tyche_lat_ns_bucket{op=\"seal\",le=\"1\"} 2\n"
      "tyche_lat_ns_bucket{op=\"seal\",le=\"2\"} 2\n"
      "tyche_lat_ns_bucket{op=\"seal\",le=\"4\"} 5\n"
      "tyche_lat_ns_bucket{op=\"seal\",le=\"+Inf\"} 5\n"
      "tyche_lat_ns_sum{op=\"seal\"} 14\n"
      "tyche_lat_ns_count{op=\"seal\"} 5\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistryTest, CallbacksAndScalarValues) {
  MetricsRegistry registry;
  registry.AddCounter("tyche_native_total", "native")->Add(7);
  uint64_t source = 99;
  registry.AddCallback("tyche_pulled", "pulled", /*counter=*/false, {},
                       [&source] { return source; });

  auto all = registry.ScalarValues();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "tyche_native_total");
  EXPECT_EQ(all[0].second, 7u);
  EXPECT_EQ(all[1].first, "tyche_pulled");
  EXPECT_EQ(all[1].second, 99u);

  // Native-only view (what the flight recorder samples) skips callbacks.
  auto native = registry.ScalarValues(/*include_callbacks=*/false);
  ASSERT_EQ(native.size(), 1u);
  EXPECT_EQ(native[0].first, "tyche_native_total");
}

TEST(RenderSeriesNameTest, LabelOrderIsPreserved) {
  EXPECT_EQ(RenderSeriesName("m", {}), "m");
  EXPECT_EQ(RenderSeriesName("m", {{"b", "2"}, {"a", "1"}}), "m{b=\"2\",a=\"1\"}");
}

}  // namespace
}  // namespace tyche

// Copyright 2026 The Tyche Reproduction Authors.
// TraceRing and the striped log2 histogram: capacity/overwrite semantics,
// percentile math, merge, enable gating, and multi-threaded recording (the
// concurrency the ASan/UBSan CI job gates).

#include "src/support/telemetry.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <thread>
#include <utility>

namespace tyche {
namespace {

TraceEntry MakeEntry(uint16_t op, uint64_t duration_ns) {
  TraceEntry entry;
  entry.op = op;
  entry.duration_ns = duration_ns;
  return entry;
}

TEST(TraceRingTest, AssignsSequenceNumbersOldestFirst) {
  TraceRing ring(8);
  for (uint16_t i = 0; i < 5; ++i) {
    ring.Record(MakeEntry(i, 10 * i));
  }
  const auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, i);
    EXPECT_EQ(snapshot[i].op, i);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, OverwritesOldestWhenFull) {
  TraceRing ring(4);
  for (uint16_t i = 0; i < 10; ++i) {
    ring.Record(MakeEntry(i, 0));
  }
  const auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().op, 6);  // ops 0..5 overwritten
  EXPECT_EQ(snapshot.back().op, 9);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceRingTest, StopGatesRecording) {
  TraceRing ring(4);
  ring.Stop();
  ring.Record(MakeEntry(1, 0));
  EXPECT_EQ(ring.recorded(), 0u);
  ring.Start();
  ring.Record(MakeEntry(2, 0));
  EXPECT_EQ(ring.recorded(), 1u);
}

TEST(TraceRingTest, ClearResets) {
  TraceRing ring(4);
  ring.Record(MakeEntry(1, 0));
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(TraceRingTest, DumpJsonContainsOpNames) {
  TraceRing ring(4);
  ring.Record(MakeEntry(3, 42));
  const auto name = [](uint16_t op) { return std::string("op") + std::to_string(op); };
  const std::string json = ring.DumpJson(name);
  EXPECT_NE(json.find("\"op\":\"op3\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\":42"), std::string::npos);
}

// Records every value into a fresh striped histogram and snapshots it.
HistogramSnapshot Histogram(std::initializer_list<std::pair<uint64_t, int>> samples) {
  StripedHistogram recorder;
  for (const auto& [value, times] : samples) {
    for (int i = 0; i < times; ++i) {
      recorder.Record(value);
    }
  }
  return recorder.Snapshot();
}

TEST(HistogramTest, BucketsArePowersOfTwo) {
  const HistogramSnapshot histogram = Histogram({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {1024, 1}});
  EXPECT_EQ(histogram.count, 5u);
  EXPECT_EQ(histogram.sum, 1030u);
  EXPECT_EQ(histogram.max, 1024u);
  EXPECT_EQ(histogram.buckets[0], 2u);   // 0, 1
  EXPECT_EQ(histogram.buckets[1], 1u);   // 2
  EXPECT_EQ(histogram.buckets[2], 1u);   // 3..4
  EXPECT_EQ(histogram.buckets[10], 1u);  // 513..1024
}

TEST(HistogramTest, PercentilesAtBucketResolution) {
  // 99 cheap samples and one expensive one: p50 stays in the cheap bucket,
  // p99+ reaches the tail.
  const HistogramSnapshot histogram = Histogram({{100, 99}, {1u << 20, 1}});
  EXPECT_EQ(histogram.Percentile(50), 128u);  // bucket upper bound of 100
  EXPECT_EQ(histogram.Percentile(99), 128u);  // rank 99 of 100, not 100
  EXPECT_EQ(histogram.Percentile(100), 1u << 20);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(99), 0u);
}

// Regression: the rank used to be rounded (p/100 * N + 0.5) instead of
// taking the nearest-rank ceiling, which under-reported tails.
TEST(HistogramTest, PercentileRankIsTheCeiling) {
  // p99 of 170 samples is rank ceil(168.3) = 169: one of the slow samples.
  const HistogramSnapshot tail = Histogram({{1000, 168}, {100000, 2}});
  EXPECT_EQ(tail.Percentile(99), 131072u);
  EXPECT_EQ(tail.Percentile(98), 1024u);  // rank ceil(166.6) = 167
  // p10 of 12 samples is rank ceil(1.2) = 2: past the single cheap one.
  const HistogramSnapshot head = Histogram({{1, 1}, {1024, 11}});
  EXPECT_EQ(head.Percentile(10), 1024u);
  EXPECT_EQ(head.Percentile(8), 1u);  // rank ceil(0.96) = 1
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  const HistogramSnapshot histogram = StripedHistogram().Snapshot();
  EXPECT_EQ(histogram.count, 0u);
  EXPECT_EQ(histogram.sum, 0u);
  EXPECT_EQ(histogram.max, 0u);
  EXPECT_EQ(histogram.Percentile(0), 0u);
  EXPECT_EQ(histogram.Percentile(50), 0u);
  EXPECT_EQ(histogram.Percentile(100), 0u);
}

TEST(HistogramTest, SingleSampleAnswersEveryPercentile) {
  const HistogramSnapshot histogram = Histogram({{300, 1}});  // upper bound 512
  EXPECT_EQ(histogram.max, 300u);
  // With one sample the nearest rank is 1 for every p, including p=0.
  EXPECT_EQ(histogram.Percentile(0), 512u);
  EXPECT_EQ(histogram.Percentile(50), 512u);
  EXPECT_EQ(histogram.Percentile(100), 512u);
}

TEST(HistogramTest, HugeValuesClampToTheLastBucket) {
  // Values above 2^63 used to compute bucket index 64 -- one past the end.
  const HistogramSnapshot histogram = Histogram({{~0ull, 1}, {(1ull << 63) + 1, 1}});
  EXPECT_EQ(histogram.buckets[kHistogramBuckets - 1], 2u);
  EXPECT_EQ(histogram.Percentile(100), ~0ull);
  EXPECT_EQ(histogram.max, ~0ull);
}

TEST(HistogramTest, DisjointBucketMergeKeepsRanksInRange) {
  HistogramSnapshot low = Histogram({{3, 10}});  // bucket upper bound 4
  low.Merge(Histogram({{1ull << 40, 10}}));
  ASSERT_EQ(low.count, 20u);
  // Ranks land inside real buckets on both sides of the empty middle; the
  // nearest-rank scan must terminate inside the table for every p.
  EXPECT_EQ(low.Percentile(0), 4u);
  EXPECT_EQ(low.Percentile(50), 4u);
  EXPECT_EQ(low.Percentile(55), 1ull << 40);
  EXPECT_EQ(low.Percentile(100), 1ull << 40);
  for (double p = 0; p <= 100.0; p += 0.5) {
    const uint64_t value = low.Percentile(p);
    EXPECT_TRUE(value == 4u || value == (1ull << 40)) << "p=" << p;
  }
}

TEST(HistogramTest, MergeAddsCountsAndExtremes) {
  HistogramSnapshot a = Histogram({{4, 1}});
  a.Merge(Histogram({{4096, 1}}));
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.sum, 4100u);
  EXPECT_EQ(a.max, 4096u);
  EXPECT_EQ(a.Percentile(100), 4096u);
}

TEST(HistogramTest, WeightedSamplesCountAsManyAndResetClears) {
  StripedHistogram recorder;
  recorder.Record(100, /*weight=*/16);
  recorder.Record(3);
  HistogramSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.count, 17u);
  EXPECT_EQ(snapshot.sum, 1603u);
  EXPECT_EQ(snapshot.buckets[7], 16u);  // 65..128
  EXPECT_EQ(snapshot.max, 100u);
  recorder.Reset();
  snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.sum, 0u);
  EXPECT_EQ(snapshot.max, 0u);
}

TEST(TelemetryTest, RecordsPerOpHistogramsAndRing) {
  Telemetry telemetry(/*op_count=*/4, /*ring_capacity=*/16);
  TraceEntry entry = MakeEntry(2, 100);
  telemetry.RecordCall(entry);
  telemetry.RecordCall(MakeEntry(2, 200));
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.OpHistogram(2).count, 2u);
  EXPECT_EQ(telemetry.OpHistogram(2).sum, 300u);
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
  EXPECT_EQ(telemetry.OpHistogram(1).count, 0u);
  EXPECT_EQ(telemetry.MergedHistogram().count, 3u);
  EXPECT_EQ(telemetry.ring().recorded(), 3u);
  // Out-of-range op: traced but not histogrammed.
  telemetry.RecordCall(MakeEntry(9, 5));
  EXPECT_EQ(telemetry.ring().recorded(), 4u);
  EXPECT_EQ(telemetry.MergedHistogram().count, 3u);
  EXPECT_EQ(telemetry.OpHistogram(9).count, 0u);
  telemetry.ClearHistograms();
  EXPECT_EQ(telemetry.MergedHistogram().count, 0u);
}

TEST(TelemetryTest, EnableSwitchesAreIndependent) {
  Telemetry telemetry(2);
  EXPECT_TRUE(telemetry.any_enabled());
  telemetry.set_trace_enabled(false);
  EXPECT_TRUE(telemetry.any_enabled());  // histograms still on
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.ring().recorded(), 0u);
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
  telemetry.set_histograms_enabled(false);
  EXPECT_FALSE(telemetry.any_enabled());
  telemetry.RecordCall(MakeEntry(0, 1));
  EXPECT_EQ(telemetry.OpHistogram(0).count, 1u);
}

TEST(TelemetryTest, ConcurrentRecordingIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  Telemetry telemetry(/*op_count=*/4, /*ring_capacity=*/1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry.RecordCall(MakeEntry(static_cast<uint16_t>(t % 4), i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(telemetry.ring().recorded(), kTotal);
  EXPECT_EQ(telemetry.ring().dropped(), kTotal - 1024);
  // The striped recorder loses no sample: counts, sum and max are exact.
  const HistogramSnapshot merged = telemetry.MergedHistogram();
  EXPECT_EQ(merged.count, kTotal);
  EXPECT_EQ(merged.sum, uint64_t{kThreads} * (kPerThread * (kPerThread - 1) / 2));
  EXPECT_EQ(merged.max, uint64_t{kPerThread - 1});
  // Every sequence number in the snapshot is unique and the snapshot is
  // sorted oldest-first.
  const auto snapshot = telemetry.ring().Snapshot();
  ASSERT_EQ(snapshot.size(), 1024u);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, snapshot[i - 1].seq + 1);
  }
}

TEST(Fnv1aDigestTest, DistinguishesArguments) {
  const uint64_t a[] = {1, 2, 3, 4, 5, 6};
  const uint64_t b[] = {1, 2, 3, 4, 5, 7};
  EXPECT_NE(Fnv1aDigest(a, 6), Fnv1aDigest(b, 6));
  EXPECT_EQ(Fnv1aDigest(a, 6), Fnv1aDigest(a, 6));
}

}  // namespace
}  // namespace tyche

// Copyright 2026 The Tyche Reproduction Authors.
// Zero-dependency metrics registry for the monitor stack (DESIGN.md §6
// "Metrics & export").
//
// The fleet-observability contract: every signal the monitor produces --
// per-op call counts, transition/revocation totals, backend projection
// counters, journal chain length, lock contention, fault-injection hits --
// must be scrapeable as a Prometheus-style text snapshot without the
// instrumentation itself serializing cores. Two pieces deliver that:
//
//  - StripedCounter: a monotonic counter spread over kMetricStripes
//    cache-line-aligned cells. Each thread picks a stripe once (round-robin
//    at first use) and increments it with one relaxed fetch_add, so eight
//    dispatching cores never bounce a shared line. Reads sum the stripes --
//    monotonic but not linearizable, which is exactly what a scraper needs.
//  - StripedHistogram: the one latency recorder. Log2 buckets plus sum and
//    max, striped over the same per-thread cells as StripedCounter, read out
//    as a plain HistogramSnapshot that merges and answers percentiles.
//  - MetricsRegistry: named families of counters, gauges, and histogram
//    views, each with optional labels. Native counters/gauges live in the
//    registry; signals owned elsewhere (backend stats, journal sizes, fault
//    hits) register PULL CALLBACKS so the registry never duplicates state.
//    ExportPrometheus() renders the whole surface in deterministic (sorted)
//    order with proper HELP/label escaping.
//
// Everything here is independent of the monitor's types, so telemetry.h and
// profiler.h can include this header without a cycle.

#ifndef SRC_SUPPORT_METRICS_H_
#define SRC_SUPPORT_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tyche {

// Stripe count: a power of two comfortably above the 8-core machines the
// testbed models, small enough that aggregation stays trivial.
inline constexpr size_t kMetricStripes = 16;

namespace metrics_internal {
// This thread's stripe id + 1; 0 means "not assigned yet". Constant-
// initialized on purpose: a zero-init thread_local has no per-access init
// guard, so the hot-path read below is a bare TLS load. Assignment (the
// round-robin fetch_add) happens once per thread, out of line.
extern thread_local size_t tls_stripe_plus1;
size_t AssignThisThreadStripe();  // returns stripe + 1 and caches it

// Threads take consecutive stripe ids at first use, so up to kMetricStripes
// concurrent threads never share a cell. Inline and guard-free: counter and
// histogram bumps sit on the dispatch fast path, gated to +10% of the
// telemetry-off boundary by bench_telemetry.
inline size_t ThisThreadStripe() {
  const size_t cached = tls_stripe_plus1;
  if (cached != 0) [[likely]] {
    return cached - 1;
  }
  return AssignThisThreadStripe() - 1;
}
}  // namespace metrics_internal

// Monotonic counter striped over per-thread cache-line-aligned cells.
// Add() is wait-free (one relaxed fetch_add on this thread's stripe);
// Value() sums the stripes.
class StripedCounter {
 public:
  StripedCounter() = default;
  StripedCounter(const StripedCounter&) = delete;
  StripedCounter& operator=(const StripedCounter&) = delete;

  void Add(uint64_t delta = 1) {
    cells_[metrics_internal::ThisThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Per-stripe occupancy, for tests asserting that concurrent writers
  // actually spread over distinct lines instead of sharing one.
  std::array<uint64_t, kMetricStripes> StripeValues() const {
    std::array<uint64_t, kMetricStripes> values{};
    for (size_t i = 0; i < kMetricStripes; ++i) {
      values[i] = cells_[i].value.load(std::memory_order_relaxed);
    }
    return values;
  }

  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  std::array<Cell, kMetricStripes> cells_;
};

// A settable instantaneous value. Gauges are off the hot path (domain
// counts, config state), so a single atomic cell is enough.
class MetricGauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// The log2 bucket ladder every latency histogram uses: bucket i counts
// values v with 2^(i-1) < v <= 2^i (bucket 0 counts 0 and 1). Values above
// 2^63 have no power-of-two upper bound in 64 bits; they land in the last
// bucket, whose upper bound saturates to ~0.
inline constexpr size_t kHistogramBuckets = 64;

// Smallest i with value <= 2^i, i.e. ceil(log2(value)), clamped to the
// last bucket.
inline size_t Log2BucketIndex(uint64_t value) {
  if (value <= 1) {
    return 0;
  }
  return std::min<size_t>(kHistogramBuckets - 1,
                          static_cast<size_t>(64 - __builtin_clzll(value - 1)));
}

// Inclusive upper bound of values landing in bucket i (the `le` label).
inline uint64_t Log2BucketUpperBound(size_t i) { return i >= 63 ? ~0ull : (1ull << i); }

// A point-in-time log2 histogram: what StripedHistogram::Snapshot returns,
// what the registry exports, and what percentiles are read from. Plain
// data, so it copies and merges freely.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> buckets{};  // samples per bucket
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  void Merge(const HistogramSnapshot& other);

  // Upper bound of the bucket holding the nearest-rank p-th percentile
  // sample (p in [0, 100], resolved to 1e-4): the sample of rank
  // ceil(p / 100 * count), at least 1. Returns 0 on an empty histogram.
  uint64_t Percentile(double p) const;
};

// The one latency recorder: log2 buckets, sum and max striped over
// kMetricStripes cache-line-aligned cells, so concurrent dispatchers never
// bounce a bucket line and no lock is taken. Record() is wait-free except
// for the rare max update; Snapshot() sums the stripes (monotonic, not
// linearizable, like StripedCounter::Value()).
class StripedHistogram {
 public:
  StripedHistogram() = default;
  StripedHistogram(const StripedHistogram&) = delete;
  StripedHistogram& operator=(const StripedHistogram&) = delete;

  // Records `weight` samples of `value`. A weight above 1 stands a sampled
  // measurement in for the events it was sampled from.
  void Record(uint64_t value, uint64_t weight = 1) {
    Cell& cell = cells_[metrics_internal::ThisThreadStripe()];
    cell.buckets[Log2BucketIndex(value)].fetch_add(weight, std::memory_order_relaxed);
    cell.sum.fetch_add(value * weight, std::memory_order_relaxed);
    uint64_t seen = cell.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !cell.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  std::array<Cell, kMetricStripes> cells_;
};

// label key/value pairs, rendered in the order given.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Prometheus text-format escaping (exposed for tests).
std::string PromEscapeHelp(const std::string& text);
std::string PromEscapeLabelValue(const std::string& text);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create a native striped counter / gauge child. The returned
  // pointer is stable for the registry's lifetime; hot paths cache it and
  // never touch the registry again.
  StripedCounter* AddCounter(const std::string& name, const std::string& help,
                             const MetricLabels& labels = {});
  MetricGauge* AddGauge(const std::string& name, const std::string& help,
                        const MetricLabels& labels = {});

  // Registers a pull callback for a signal owned elsewhere. `counter`
  // controls the TYPE line (counter vs gauge).
  void AddCallback(const std::string& name, const std::string& help, bool counter,
                   const MetricLabels& labels, std::function<uint64_t()> read);

  // Registers a histogram view; the callback snapshots the source histogram
  // at export time.
  void AddHistogram(const std::string& name, const std::string& help,
                    const MetricLabels& labels, std::function<HistogramSnapshot()> read);

  // Prometheus text exposition: families sorted by name, children in
  // registration order, HELP/TYPE once per family.
  std::string ExportPrometheus() const;

  // Every scalar series (histograms excluded) as (rendered series name,
  // value). `include_callbacks = false` restricts to native counters and
  // gauges, whose cells are atomic; the flight recorder uses that form
  // because it samples from dispatch threads while callback-backed state
  // (domain table, backend stats) may be mid-mutation under another lock.
  std::vector<std::pair<std::string, uint64_t>> ScalarValues(
      bool include_callbacks = true) const;

 private:
  struct Child {
    MetricLabels labels;
    std::unique_ptr<StripedCounter> counter;     // native counter
    std::unique_ptr<MetricGauge> gauge;          // native gauge
    std::function<uint64_t()> read;              // callback scalar
    std::function<HistogramSnapshot()> histogram;  // callback histogram
  };
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    std::string help;
    Type type = Type::kCounter;
    std::vector<Child> children;
  };

  Child* FindOrAddChild(const std::string& name, const std::string& help, Type type,
                        const MetricLabels& labels);

  mutable std::mutex mu_;  // guards families_ shape; cell updates are atomic
  std::map<std::string, Family> families_;
};

// Renders "name{k=\"v\",...}" (no labels -> bare name).
std::string RenderSeriesName(const std::string& name, const MetricLabels& labels);

}  // namespace tyche

#endif  // SRC_SUPPORT_METRICS_H_

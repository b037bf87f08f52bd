// Copyright 2026 The Tyche Reproduction Authors.
// Zero-dependency observability primitives for the monitor stack.
//
// The paper's auditability story needs more than enforcement: every policy
// decision the monitor takes must be *observable and attributable*. This
// layer provides the measurement substrate:
//
//  - TraceRing: a lock-protected, fixed-capacity ring buffer recording one
//    entry per ABI call crossing Dispatch() -- op, core, caller domain, an
//    FNV-1a digest of the argument registers, the error code, and the
//    wall-clock nanoseconds the monitor spent on the call. Old entries are
//    overwritten (and counted as dropped) so tracing never allocates on the
//    hot path after construction.
//  - Telemetry: one StripedHistogram (src/support/metrics.h) per op plus
//    the ring, with independent enable switches so the instrumentation cost
//    itself can be benchmarked (bench_telemetry) and turned off on
//    production hot paths.
//
// Everything here is deliberately independent of the monitor's types: the
// per-op dimension is just an index, named by whoever renders it. This keeps
// src/support free of upward dependencies.

#ifndef SRC_SUPPORT_TELEMETRY_H_
#define SRC_SUPPORT_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/support/metrics.h"

namespace tyche {

// FNV-1a over an array of 64-bit words; used to attribute a trace entry to
// its arguments without storing (possibly sensitive) raw register values.
uint64_t Fnv1aDigest(const uint64_t* words, size_t count);

// One record per monitor ABI call.
struct TraceEntry {
  uint64_t seq = 0;          // monotonically increasing, first call = 0
  uint16_t op = 0;           // ApiOp value at the dispatch boundary
  uint32_t core = 0;
  uint32_t domain = 0;       // caller domain (~0u when unresolvable)
  uint64_t span = 0;         // causal span id shared with journal records
  uint64_t args_digest = 0;  // FNV-1a of the six argument registers
  uint64_t error = 0;        // ErrorCode (0 = OK)
  uint64_t duration_ns = 0;  // monitor-side wall-clock time
  uint64_t start_ns = 0;     // steady-clock start of the call (0 = unknown);
                             // places the entry on the trace_export timeline
};

inline constexpr uint32_t kTraceNoDomain = ~0u;

// Fixed-capacity, lock-protected ring of TraceEntry. Thread-safe.
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceRing(size_t capacity = kDefaultCapacity);

  // Start / stop recording. Record() is a no-op while stopped.
  void Start() { enabled_.store(true, std::memory_order_relaxed); }
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records one entry, assigning its sequence number. Overwrites the oldest
  // entry when full.
  void Record(TraceEntry entry);

  // Entries currently held, oldest first.
  std::vector<TraceEntry> Snapshot() const;

  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;  // total Record() calls that took effect
  uint64_t dropped() const;   // of those, how many overwrote an older entry
  void Clear();

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<TraceEntry> ring_;  // size capacity_, slot = seq % capacity_
  uint64_t next_seq_ = 0;
};

// The aggregate carried by the monitor: one latency histogram per ABI op
// plus the trace ring. Thread-safe.
class Telemetry {
 public:
  explicit Telemetry(size_t op_count, size_t ring_capacity = TraceRing::kDefaultCapacity);

  // Independent switches: the ring and the histograms can be costed apart.
  void set_trace_enabled(bool enabled);
  void set_histograms_enabled(bool enabled) {
    histograms_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool trace_enabled() const { return ring_.enabled(); }
  bool histograms_enabled() const {
    return histograms_enabled_.load(std::memory_order_relaxed);
  }
  // True when any instrumentation is live; the dispatcher skips clock reads
  // entirely when this is false, so disabled telemetry costs two loads.
  bool any_enabled() const { return trace_enabled() || histograms_enabled(); }

  // Records one ABI call into the ring (if tracing) and the op's histogram
  // (if histograms are on). `entry.seq` is assigned by the ring.
  void RecordCall(const TraceEntry& entry);

  size_t op_count() const { return op_count_; }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  // Snapshots of the per-op histograms (empty for an out-of-range op).
  HistogramSnapshot OpHistogram(size_t op) const;
  // All per-op histograms merged into one.
  HistogramSnapshot MergedHistogram() const;
  void ClearHistograms();

  // Lock-contention counters for concurrent dispatch: bumped by the monitor's
  // conditional guards whenever a try_lock fails and the thread has to block
  // (see src/support/locking.h). Always-on striped counters — a contended
  // acquisition already paid for a cache miss, and striping keeps eight
  // blocking threads from fighting over the counter line too.
  StripedCounter* exclusive_contention() { return &exclusive_contention_; }
  StripedCounter* shared_contention() { return &shared_contention_; }

  // Wait-TIME companions to the counters above: total nanoseconds threads
  // spent blocked in each guard class (api exclusive, api shared, domain
  // shard). Contention is thereby attributed, not inferred from throughput:
  // the guards measure the block and add the delta here, and the dispatch
  // profiler charges the same interval to its lock-wait phases.
  StripedCounter* exclusive_wait_ns() { return &exclusive_wait_ns_; }
  StripedCounter* shared_wait_ns() { return &shared_wait_ns_; }
  StripedCounter* shard_wait_ns() { return &shard_wait_ns_; }

 private:
  const size_t op_count_;
  std::atomic<bool> histograms_enabled_{true};
  StripedCounter exclusive_contention_;
  StripedCounter shared_contention_;
  StripedCounter exclusive_wait_ns_;
  StripedCounter shared_wait_ns_;
  StripedCounter shard_wait_ns_;
  std::unique_ptr<StripedHistogram[]> per_op_;
  TraceRing ring_;
};

}  // namespace tyche

#endif  // SRC_SUPPORT_TELEMETRY_H_

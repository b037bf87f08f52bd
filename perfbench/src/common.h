// Copyright 2026 The Tyche Reproduction Authors.
// Shared plumbing for the repository benchmark: options, host clocks, exact
// percentiles, the result record every workload fills, and the span tracer
// the traced run records at each call the benchmark makes into a layer.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/monitor/backend.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/monitor.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Worlds built (and timed) before the one the run uses.
  int setup_repeats = 5;
};

uint64_t NowNs();

inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Exact percentiles over every recorded sample (no histogram buckets). The
// samples sit in a deque, which grows in fixed chunks: a vector's doubling
// would put a step into the process's peak RSS wherever a run's op count
// crosses a power of two.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  // The p-th percentile (p in [0, 100]), smoothed: the mean of the order
  // statistics within +-0.5% of the ranks around it, so a tight
  // distribution of integer-nanosecond samples does not pin the estimate to
  // one clock tick. Under 100 samples it interpolates between the two
  // nearest order statistics instead. 0 when empty.
  double Percentile(double p) const;

 private:
  std::deque<double> values_;
};

struct Report;

// The hardware-projection counters the per-layer hw.* metrics come from.
struct HwCounters {
  uint64_t pages_mapped = 0;
  uint64_t pages_protected = 0;
  uint64_t pmp_recompiles = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t core_binds = 0;
  uint64_t fast_binds = 0;
  uint64_t journal_records = 0;
  uint64_t sim_cycles = 0;

  static HwCounters Of(tyche::Monitor& monitor);
  HwCounters operator-(const HwCounters& other) const;
  HwCounters& operator+=(const HwCounters& other);
};

// Writes hw.*_per_op, support.journal_records_per_op from `delta` over `ops`.
void ReportHwPerOp(const HwCounters& delta, uint64_t ops, Report* report);

// Dispatch-phase time summed over every op of one or more profilers, turned
// into monitor.phase.*_share metrics.
struct PhaseTotals {
  uint64_t ns[tyche::kDispatchPhaseCount] = {};
  void Add(const tyche::DispatchProfiler& profiler);
};
void ReportPhaseShares(const PhaseTotals& totals, Report* report);

// Peak resident set size of this process, MiB.
double PeakRssMb();

// Moves the calling thread round-robin over the CPUs the process may use.
// On a shared host each CPU's speed drifts on its own; a run that spends
// equal time on every CPU measures their average instead of whichever one
// the scheduler happened to leave it on.
class CpuRotation {
 public:
  CpuRotation();
  // Pins the calling thread to the next CPU.
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// --- Span tracing ----------------------------------------------------------
//
// One span per call the benchmark makes into a layer: name, start, end, the
// span that caused it, and the workload op (trace id) it belongs to. Spans
// live in memory and are written out when the run ends.

struct Span {
  const char* name = nullptr;  // static string
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  const std::vector<Span>& spans() const { return spans_; }

  // Records a finished span and returns its id (0 when tracing is off).
  uint64_t Record(const char* name, uint64_t trace, uint64_t parent, uint64_t start_ns,
                  uint64_t end_ns);
  // Opens a span whose end is filled by Close (for spans with children).
  uint64_t Open(const char* name, uint64_t trace, uint64_t parent, uint64_t start_ns);
  void Close(uint64_t id, uint64_t end_ns);

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run measured. `e2e` holds the end-to-end metrics of the
// run, `layer` the per-layer ones (filled only by traced runs); `notes` are
// printed as a side line before the result (sample counts, thread count).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> notes;
  std::vector<std::string> check_failures;
  // Spans of a traced run, written out when the run ends.
  SpanLog spans;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (check_failures.size() < 16) {
        check_failures.push_back(what);
      }
    }
  }
};

// Times the ops of one workload from outside, at the calls it makes into a
// layer: one span per call, and one host-time sample per op.
class OpRecorder {
 public:
  OpRecorder(bool trace, Report* report) : spans(trace), report_(report) {}

  // Runs `call` as one op: a span `name` under `parent`, and a sample in
  // all_us (and in write_us when the op mutates state). Returns its host ns.
  template <typename Call>
  uint64_t Time(const char* name, bool write, uint64_t trace, uint64_t parent, Call&& call) {
    const uint64_t start = NowNs();
    call();
    const uint64_t end = NowNs();
    spans.Record(name, trace, parent, start, end);
    all_us.Add(NsToUs(end - start));
    if (write) {
      write_us.Add(NsToUs(end - start));
    }
    ++ops;
    return end - start;
  }

  // One timed Dispatch call. A result other than OK counts as failed and
  // fails the run's check, naming `label`.
  tyche::ApiResult Dispatch(tyche::Monitor* monitor, tyche::CoreId core,
                            const tyche::ApiRegs& regs, const char* name, bool write,
                            uint64_t trace, uint64_t parent, const std::string& label);

  // Counts an op that failed and fails the run's check.
  void Fail(const std::string& what) {
    ++failed;
    report_->Check(false, what);
  }

  SpanLog spans;
  Samples all_us;
  Samples write_us;
  uint64_t ops = 0;
  uint64_t failed = 0;

 private:
  Report* report_;
};

// The run-end check every live monitor must pass: its hardware is a
// projection of its capability tree, and its exported journal verifies
// under its key.
void CheckMonitorAtEnd(tyche::Monitor& monitor, const std::string& label, Report* report);

// Fills the end-to-end metrics every workload reports, the op counts and the
// percentile sample counts from `ops`. Peak RSS and sim cycles per op come
// from the deterministic window (`det`, `det_ops`): taken after the same
// seeded work in every run, they do not depend on how many ops the host
// managed in the rest of it.
void ReportEndToEnd(const OpRecorder& ops, double setup_s, double ops_per_s,
                    double det_peak_rss_mb, const HwCounters& det, uint64_t det_ops,
                    Report* report);

// Writes at most `max_spans` spans of `log` (the earliest) as Chrome
// trace-event JSON to `path`. Returns the number written, or -1 when the
// file cannot be written.
long WriteTrace(const std::string& path, const SpanLog& log, size_t max_spans);

// Every per-layer metric the traced run prints, with its unit. A layer a
// workload does not reach reads 0 there.
const std::vector<std::pair<std::string, std::string>>& LayerMetricCatalogue();

// For every per-layer metric "<span name>_us" of the catalogue, the median
// host time of the spans with that name in `log` (0 when there are none).
void ReportSpanMedians(const SpanLog& log, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_

// Copyright 2026 The Tyche Reproduction Authors.

#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/tyche/verifier.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(values_.begin(), values_.end());
  std::sort(sorted.begin(), sorted.end());
  const double last = static_cast<double>(sorted.size() - 1);
  const double center = std::clamp(p / 100.0, 0.0, 1.0) * last;
  const double half = 0.005 * static_cast<double>(sorted.size());
  if (half < 0.5) {
    // Too few samples to smooth: interpolate between the two neighbours.
    const auto below = static_cast<size_t>(std::floor(center));
    const size_t above = std::min(below + 1, sorted.size() - 1);
    const double frac = center - static_cast<double>(below);
    return sorted[below] + frac * (sorted[above] - sorted[below]);
  }
  const auto lo = static_cast<size_t>(std::max(0.0, std::ceil(center - half)));
  const auto hi = static_cast<size_t>(std::min(last, std::floor(center + half)));
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(hi - lo + 1);
}

HwCounters HwCounters::Of(tyche::Monitor& monitor) {
  const tyche::BackendStats& stats = monitor.backend().stats();
  HwCounters counters;
  counters.pages_mapped = stats.pages_mapped;
  counters.pages_protected = stats.pages_protected;
  counters.pmp_recompiles = stats.pmp_recompiles;
  counters.tlb_shootdowns = stats.tlb_shootdowns;
  counters.core_binds = stats.core_binds;
  counters.fast_binds = stats.fast_binds;
  counters.journal_records = monitor.audit().journal().size();
  counters.sim_cycles = monitor.machine()->cycles().cycles();
  return counters;
}

HwCounters HwCounters::operator-(const HwCounters& other) const {
  HwCounters d;
  d.pages_mapped = pages_mapped - other.pages_mapped;
  d.pages_protected = pages_protected - other.pages_protected;
  d.pmp_recompiles = pmp_recompiles - other.pmp_recompiles;
  d.tlb_shootdowns = tlb_shootdowns - other.tlb_shootdowns;
  d.core_binds = core_binds - other.core_binds;
  d.fast_binds = fast_binds - other.fast_binds;
  d.journal_records = journal_records - other.journal_records;
  d.sim_cycles = sim_cycles - other.sim_cycles;
  return d;
}

HwCounters& HwCounters::operator+=(const HwCounters& other) {
  pages_mapped += other.pages_mapped;
  pages_protected += other.pages_protected;
  pmp_recompiles += other.pmp_recompiles;
  tlb_shootdowns += other.tlb_shootdowns;
  core_binds += other.core_binds;
  fast_binds += other.fast_binds;
  journal_records += other.journal_records;
  sim_cycles += other.sim_cycles;
  return *this;
}

void ReportHwPerOp(const HwCounters& delta, uint64_t ops, Report* report) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [&](const char* name, uint64_t count) {
    report->layer[name] = {static_cast<double>(count) / n, "count"};
  };
  per_op("hw.pages_mapped_per_op", delta.pages_mapped);
  per_op("hw.pages_protected_per_op", delta.pages_protected);
  per_op("hw.pmp_recompiles_per_op", delta.pmp_recompiles);
  per_op("hw.tlb_shootdowns_per_op", delta.tlb_shootdowns);
  per_op("hw.core_binds_per_op", delta.core_binds);
  per_op("hw.fast_binds_per_op", delta.fast_binds);
  per_op("support.journal_records_per_op", delta.journal_records);
}

void PhaseTotals::Add(const tyche::DispatchProfiler& profiler) {
  for (size_t p = 0; p < tyche::kDispatchPhaseCount; ++p) {
    for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
      ns[p] += profiler.PhaseSnapshot(op, static_cast<tyche::DispatchPhase>(p)).sum;
    }
  }
}

void ReportPhaseShares(const PhaseTotals& totals, Report* report) {
  uint64_t all = 0;
  for (const uint64_t ns : totals.ns) {
    all += ns;
  }
  for (size_t p = 0; p < tyche::kDispatchPhaseCount; ++p) {
    const std::string name = std::string("monitor.phase.") +
                             tyche::DispatchPhaseName(static_cast<tyche::DispatchPhase>(p)) +
                             "_share";
    report->layer[name] = {
        all == 0 ? 0.0 : static_cast<double>(totals.ns[p]) / static_cast<double>(all),
        "ratio"};
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);  // best effort
  next_ = (next_ + 1) % cpus_.size();
}

uint64_t SpanLog::Record(const char* name, uint64_t trace, uint64_t parent,
                         uint64_t start_ns, uint64_t end_ns) {
  const uint64_t id = Open(name, trace, parent, start_ns);
  Close(id, end_ns);
  return id;
}

uint64_t SpanLog::Open(const char* name, uint64_t trace, uint64_t parent,
                       uint64_t start_ns) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace = trace;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  spans_.push_back(span);
  return span.id;
}

void SpanLog::Close(uint64_t id, uint64_t end_ns) {
  if (enabled_ && id != 0 && id <= spans_.size()) {
    spans_[id - 1].end_ns = end_ns;
  }
}

tyche::ApiResult OpRecorder::Dispatch(tyche::Monitor* monitor, tyche::CoreId core,
                                      const tyche::ApiRegs& regs, const char* name,
                                      bool write, uint64_t trace, uint64_t parent,
                                      const std::string& label) {
  tyche::ApiResult result;
  Time(name, write, trace, parent, [&] { result = tyche::Dispatch(monitor, core, regs); });
  if (result.error != 0) {
    Fail(label + ": " + tyche::ApiOpName(static_cast<tyche::ApiOp>(regs.op)) + " returned " +
         std::string(tyche::ErrorCodeName(static_cast<tyche::ErrorCode>(result.error))));
  }
  return result;
}

void CheckMonitorAtEnd(tyche::Monitor& monitor, const std::string& label, Report* report) {
  const auto consistent = monitor.AuditHardwareConsistency();
  report->Check(consistent.ok() && *consistent,
                label + ": hardware not a projection of the capability tree");
  const std::vector<uint8_t> journal = monitor.ExportJournal();
  const tyche::Status verified =
      tyche::RemoteVerifier::VerifyJournal(journal, monitor.public_key(), nullptr);
  report->Check(verified.ok(), label + ": exported journal does not verify: " +
                                   verified.ToString());
}

void ReportEndToEnd(const OpRecorder& ops, double setup_s, double ops_per_s,
                    double det_peak_rss_mb, const HwCounters& det, uint64_t det_ops,
                    Report* report) {
  report->attempted = ops.ops;
  report->failed = ops.failed;
  report->e2e["setup_s"] = {setup_s, "s"};
  report->e2e["peak_rss_mb"] = {det_peak_rss_mb, "MB"};
  report->e2e["ops_per_s"] = {ops_per_s, "1/s"};
  report->e2e["op_p50_us"] = {ops.all_us.Percentile(50), "us"};
  report->e2e["op_p99_us"] = {ops.all_us.Percentile(99), "us"};
  report->e2e["write_p50_us"] = {ops.write_us.Percentile(50), "us"};
  report->e2e["write_p99_us"] = {ops.write_us.Percentile(99), "us"};
  report->e2e["sim_cycles_per_op"] = {
      static_cast<double>(det.sim_cycles) / static_cast<double>(det_ops), "cycles"};
  report->notes["op_samples"] = static_cast<double>(ops.all_us.size());
  report->notes["write_samples"] = static_cast<double>(ops.write_us.size());
  report->notes["det_ops"] = static_cast<double>(det_ops);
  // Every workload drives the system from one thread.
  report->notes["threads"] = 1;
}

void ReportSpanMedians(const SpanLog& log, Report* report) {
  std::map<std::string, Samples> by_name;
  for (const Span& span : log.spans()) {
    by_name[span.name].Add(NsToUs(span.end_ns - span.start_ns));
  }
  for (const auto& [name, unit] : LayerMetricCatalogue()) {
    if (unit != "us" || name.size() < 3 || name.compare(name.size() - 3, 3, "_us") != 0) {
      continue;
    }
    const auto found = by_name.find(name.substr(0, name.size() - 3));
    if (found != by_name.end()) {
      report->layer[name] = {found->second.Percentile(50), unit};
    }
  }
}

long WriteTrace(const std::string& path, const SpanLog& log, size_t max_spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return -1;
  }
  const size_t count = std::min(max_spans, log.spans().size());
  uint64_t origin = UINT64_MAX;
  for (size_t i = 0; i < count; ++i) {
    origin = std::min(origin, log.spans()[i].start_ns);
  }
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < count; ++i) {
    const Span& span = log.spans()[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"trace\":%llu}}",
                 i == 0 ? "" : ",\n", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.trace));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0 ? static_cast<long>(count) : -1;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricCatalogue() {
  static const auto* catalogue = [] {
    auto* list = new std::vector<std::pair<std::string, std::string>>{
        {"capability.memory_view_us", "us"},
        {"capability.refcount_us", "us"},
    };
    for (const char* op : {"create", "share", "grant", "revoke", "transition",
                           "fast_transition", "destroy", "attest"}) {
      list->push_back({std::string("monitor.") + op + "_us", "us"});
    }
    for (size_t p = 0; p < tyche::kDispatchPhaseCount; ++p) {
      list->push_back({std::string("monitor.phase.") +
                           tyche::DispatchPhaseName(static_cast<tyche::DispatchPhase>(p)) +
                           "_share",
                       "ratio"});
    }
    list->push_back({"monitor.lock_contention_per_op", "count"});
    for (const char* counter : {"pages_mapped", "pages_protected", "pmp_recompiles",
                                "tlb_shootdowns", "core_binds", "fast_binds"}) {
      list->push_back({std::string("hw.") + counter + "_per_op", "count"});
    }
    const std::pair<std::string, std::string> rest[] = {
        {"support.journal_records_per_op", "count"},
        {"tyche.report_verify_us", "us"},
        {"fleet.cache_hit_ratio", "ratio"},
        {"fleet.resumed_ratio", "ratio"},
        {"fleet.full_chain_ratio", "ratio"},
        {"fleet.cache_us", "us"},
        {"fleet.resumed_us", "us"},
        {"fleet.full_chain_us", "us"},
        {"fleet.retries_per_verify", "count"},
        {"fleet.hedged_wins", "count"},
        {"fleet.batch_quotes_per_batch", "count"},
        {"fleet.failover_s", "s"},
        {"fleet.recover_ms", "ms"},
        {"fleet.migrate_ms_first", "ms"},
        {"fleet.migrate_ms_last", "ms"},
        {"fleet.verify_sim_p50_us", "sim_us"},
        {"fleet.verify_sim_p99_us", "sim_us"},
        {"tracing.untraced_ops_per_s", "1/s"},
        {"tracing.traced_ops_per_s", "1/s"},
        {"tracing.overhead_ratio", "ratio"},
    };
    list->insert(list->end(), std::begin(rest), std::end(rest));
    return list;
  }();
  return *catalogue;
}

}  // namespace perfbench

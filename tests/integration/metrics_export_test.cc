// Copyright 2026 The Tyche Reproduction Authors.
// Fleet observability end-to-end: every monitor signal must be reachable
// through Monitor::ExportMetrics() (the Prometheus scrape) with the value its
// owner (stats(), the trace ring, the journal, the backend) holds, the
// flight recorder must capture fault-injected dispatch failures with the
// causal span id of the failing call, and the counter kill switch must
// freeze accounting without breaking the scrape.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/monitor/dispatch.h"
#include "src/support/faults.h"
#include "tests/testing/booted_machine.h"
#include "tests/testing/scrape.h"

namespace tyche {
namespace {

class MetricsExportTest : public BootedMachineTest {
 protected:
  ApiResult Call(CoreId core, ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                 uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(op);
    regs.arg0 = a0;
    regs.arg1 = a1;
    regs.arg2 = a2;
    regs.arg3 = a3;
    regs.arg4 = a4;
    regs.arg5 = a5;
    return Dispatch(monitor_.get(), core, regs);
  }

  static uint64_t Pack(uint8_t rights, uint8_t policy) {
    return (static_cast<uint64_t>(rights) << 8) | policy;
  }

  // Runs create -> share -> revoke plus a few failing take-interrupts, the
  // same shape the telemetry-observability test validates against each
  // signal's owner.
  void RunWorkload() {
    const ApiResult created = Call(0, ApiOp::kCreateDomain);
    ASSERT_EQ(created.error, 0u);
    const AddrRange window = Scratch(kMiB, kMiB);
    const ApiResult shared =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1, window.base,
             window.size, Perms::kRW, Pack(CapRights::kAll, 0));
    ASSERT_EQ(shared.error, 0u);
    ASSERT_EQ(Call(0, ApiOp::kRevoke, shared.ret0).error, 0u);
    for (int i = 0; i < 4; ++i) {
      ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);
    }
  }

  // The `le` values of one histogram series, in scrape order.
  static std::vector<std::string> LeLadder(const std::string& text,
                                           const std::string& family,
                                           const std::string& labels) {
    const std::string prefix = family + "_bucket{" + labels + ",le=\"";
    std::vector<std::string> ladder;
    for (size_t at = text.find(prefix); at != std::string::npos;
         at = text.find(prefix, at + 1)) {
      const size_t begin = at + prefix.size();
      ladder.push_back(text.substr(begin, text.find('"', begin) - begin));
    }
    return ladder;
  }

  // Asserts the ladder is 1, 2, 4, ... (at least one finite bucket) then +Inf.
  static void ExpectLog2Ladder(const std::vector<std::string>& ladder) {
    ASSERT_GE(ladder.size(), 2u);
    EXPECT_EQ(ladder.back(), "+Inf");
    for (size_t i = 0; i + 1 < ladder.size(); ++i) {
      EXPECT_EQ(ladder[i], std::to_string(uint64_t{1} << i)) << "bucket " << i;
    }
  }

};

TEST_F(MetricsExportTest, ExportAgreesWithEverySignalOwner) {
  RunWorkload();
  const std::string text = monitor_->ExportMetrics();

  // Every family the registry promises (and CI's check_metrics_format.py
  // requires) is present with its TYPE line.
  const char* kFamilies[] = {
      "tyche_api_calls_total",
      "tyche_dispatch_latency_ns",
      "tyche_transitions_total",
      "tyche_capability_ops_total",
      "tyche_revocations_cascaded_total",
      "tyche_recoveries_total",
      "tyche_effects_total",
      "tyche_backend_ops_total",
      "tyche_journal_records",
      "tyche_journal_checkpoints",
      "tyche_journal_group_commit_batches_total",
      "tyche_journal_group_commit_records_total",
      "tyche_journal_group_commit_max_batch",
      "tyche_trace_recorded_total",
      "tyche_trace_dropped_total",
      "tyche_lock_contention_total",
      "tyche_fault_injections_fired_total",
      "tyche_fault_injection_active",
      "tyche_domains_alive",
      "tyche_flight_captures_total",
      "tyche_dispatch_phase_latency_ns",
      "tyche_profiler_samples_total",
  };
  for (const char* family : kFamilies) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "family missing from scrape: " << family;
  }

  // Registry counters agree with the typed stats() view.
  const MonitorStats stats = monitor_->stats();
  const auto op_calls = [&stats](ApiOp op) {
    return stats.api_calls[static_cast<size_t>(op)];
  };
  EXPECT_EQ(ScrapeValue(text, "tyche_api_calls_total{op=\"create_domain\"}"),
            op_calls(ApiOp::kCreateDomain));
  EXPECT_EQ(ScrapeValue(text, "tyche_api_calls_total{op=\"take_interrupt\"}"),
            op_calls(ApiOp::kTakeInterrupt));
  EXPECT_EQ(ScrapeValue(text, "tyche_capability_ops_total{kind=\"share\"}"), stats.shares);
  EXPECT_EQ(ScrapeValue(text, "tyche_capability_ops_total{kind=\"revoke\"}"), stats.revokes);
  EXPECT_EQ(ScrapeValue(text, "tyche_revocations_cascaded_total"),
            stats.revocations_cascaded);
  EXPECT_EQ(ScrapeValue(text, "tyche_recoveries_total"), stats.recoveries);
  EXPECT_EQ(ScrapeValue(text, "tyche_effects_total{kind=\"map\"}"),
            stats.effects_by_kind[static_cast<size_t>(CapEffect::Kind::kMapMemory)]);

  // Pull callbacks agree with their owners: trace ring, journal, lock
  // guards, live-domain table, backend projection counters.
  const TraceRing& ring = monitor_->telemetry().ring();
  EXPECT_EQ(ScrapeValue(text, "tyche_trace_recorded_total"), ring.recorded());
  EXPECT_EQ(ScrapeValue(text, "tyche_trace_dropped_total"), ring.dropped());
  const Journal& journal = monitor_->audit().journal();
  EXPECT_EQ(ScrapeValue(text, "tyche_journal_records"), journal.size());
  EXPECT_EQ(ScrapeValue(text, "tyche_journal_checkpoints"), journal.checkpoint_count());
  const auto group = journal.group_commit_stats();
  EXPECT_EQ(ScrapeValue(text, "tyche_journal_group_commit_batches_total"), group.batches);
  EXPECT_EQ(ScrapeValue(text, "tyche_journal_group_commit_records_total"),
            group.batched_records);
  EXPECT_EQ(ScrapeValue(text, "tyche_journal_group_commit_max_batch"), group.max_batch);
  EXPECT_EQ(ScrapeValue(text, "tyche_lock_contention_total{class=\"exclusive\"}"),
            monitor_->telemetry().exclusive_contention()->Value());
  EXPECT_EQ(ScrapeValue(text, "tyche_lock_contention_total{class=\"shared\"}"),
            monitor_->telemetry().shared_contention()->Value());
  EXPECT_EQ(ScrapeValue(text, "tyche_domains_alive"), monitor_->num_domains_alive());
  const std::string backend_series = std::string("tyche_backend_ops_total{backend=\"") +
                                     monitor_->backend().name() +
                                     "\",op=\"memory_syncs\"}";
  EXPECT_EQ(ScrapeValue(text, backend_series), monitor_->backend().stats().memory_syncs);

  // The per-op latency histogram made it across: the share op's histogram
  // rendered with its owner's sample count and a terminating +Inf bucket.
  const uint64_t shares =
      monitor_->telemetry().OpHistogram(static_cast<size_t>(ApiOp::kShareMemory)).count;
  EXPECT_EQ(shares, 1u);
  EXPECT_EQ(ScrapeValue(text, "tyche_dispatch_latency_ns_count{op=\"share_memory\"}"),
            shares);
  EXPECT_EQ(ScrapeValue(text,
                        "tyche_dispatch_latency_ns_bucket{op=\"share_memory\",le=\"+Inf\"}"),
            shares);
}

TEST_F(MetricsExportTest, DispatchHistogramsExportTheLog2Ladder) {
  monitor_->profiler().set_enabled(true);
  RunWorkload();
  const std::string text = monitor_->ExportMetrics();
  ExpectLog2Ladder(LeLadder(text, "tyche_dispatch_latency_ns", "op=\"share_memory\""));
  ExpectLog2Ladder(LeLadder(text, "tyche_dispatch_phase_latency_ns",
                            "op=\"share_memory\",phase=\"other\""));
  // A series with no samples renders only the +Inf bucket.
  EXPECT_EQ(LeLadder(text, "tyche_dispatch_latency_ns", "op=\"seal\""),
            std::vector<std::string>{"+Inf"});
}

TEST_F(MetricsExportTest, SampledTelemetryPhaseStandsForEveryDispatch) {
  // The telemetry phase is measured on one span id in 16 and recorded with
  // weight 16, so over consecutive spans its count matches the dispatches.
  monitor_->profiler().set_enabled(true);
  constexpr uint64_t kDispatches = 1024;
  for (uint64_t i = 0; i < kDispatches; ++i) {
    ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);
  }
  const uint16_t op = static_cast<uint16_t>(ApiOp::kTakeInterrupt);
  EXPECT_EQ(monitor_->profiler().PhaseSnapshot(op, DispatchPhase::kTelemetry).count,
            kDispatches);
  EXPECT_EQ(monitor_->profiler().PhaseSnapshot(op, DispatchPhase::kOther).count,
            kDispatches);
}

TEST_F(MetricsExportTest, EverySwitchOffSkipsSpansButKeepsAccounting) {
  monitor_->telemetry().set_trace_enabled(false);
  monitor_->telemetry().set_histograms_enabled(false);
  monitor_->audit().set_enabled(false);
  monitor_->flight_recorder().Clear();
  const uint64_t records = monitor_->audit().journal().size();
  const uint64_t traced = monitor_->telemetry().ring().recorded();
  const auto creates = [this] {
    return monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)];
  };
  const uint64_t created = creates();

  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);

  // Nothing optional ran: no journal record, trace entry or latency sample.
  EXPECT_EQ(monitor_->audit().journal().size(), records);
  EXPECT_EQ(monitor_->telemetry().ring().recorded(), traced);
  EXPECT_EQ(monitor_->telemetry().MergedHistogram().count, 0u);
  // The always-on accounting still did: the call counter and a span-less
  // flight record of the failing call.
  EXPECT_EQ(creates(), created + 1);
  bool captured = false;
  for (const FlightRecord& record : monitor_->flight_recorder().Snapshot()) {
    if (record.reason == "dispatch_error" &&
        record.op == static_cast<uint16_t>(ApiOp::kTakeInterrupt)) {
      captured = true;
      EXPECT_EQ(record.span, 0u);
    }
  }
  EXPECT_TRUE(captured);
}

TEST_F(MetricsExportTest, FaultInjectedDispatchErrorCapturesFlightRecord) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const AddrRange window = Scratch(kMiB, kMiB);

  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kVtxSyncMemory, /*trigger=*/1));
    const ApiResult shared =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1, window.base,
             window.size, Perms::kRW, Pack(CapRights::kAll, 0));
    EXPECT_EQ(shared.error, static_cast<uint64_t>(ErrorCode::kAccessViolation));
  }

  // The failing dispatch is the newest trace entry; the flight record must
  // carry the SAME span id, tying the post-mortem to the causal trail.
  const std::vector<TraceEntry> trace = monitor_->telemetry().ring().Snapshot();
  ASSERT_FALSE(trace.empty());
  const TraceEntry& failing = trace.back();
  ASSERT_EQ(failing.op, static_cast<uint16_t>(ApiOp::kShareMemory));
  ASSERT_NE(failing.span, 0u);

  const auto records = monitor_->flight_recorder().Snapshot();
  ASSERT_FALSE(records.empty());
  const FlightRecord& record = records.back();
  EXPECT_EQ(record.reason, "fault_site");
  EXPECT_EQ(record.op, static_cast<uint16_t>(ApiOp::kShareMemory));
  EXPECT_EQ(record.span, failing.span);
  EXPECT_EQ(record.error, static_cast<uint64_t>(ErrorCode::kAccessViolation));
  EXPECT_NE(record.detail.find("vtx.sync_memory"), std::string::npos);
  // The capture snapshotted the trace up to and including the failing call,
  // and saw the counters move since the recorder's baseline.
  ASSERT_FALSE(record.trace.empty());
  EXPECT_EQ(record.trace.back().span, failing.span);
  EXPECT_FALSE(record.metrics_delta.empty());

  // The lifetime injection counter is visible on the scrape.
  EXPECT_NE(monitor_->ExportMetrics().find("tyche_fault_injections_fired_total"),
            std::string::npos);

  // JSON dump renders the record for artifacts.
  const std::string json = monitor_->flight_recorder().DumpJson(
      [](uint16_t op) { return std::string(ApiOpName(static_cast<ApiOp>(op))); });
  EXPECT_NE(json.find("\"reason\":\"fault_site\""), std::string::npos);
  EXPECT_NE(json.find("share_memory"), std::string::npos);
}

TEST_F(MetricsExportTest, DispatchErrorsAreDedupedByShape) {
  monitor_->flight_recorder().Clear();
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(Call(0, ApiOp::kTakeInterrupt).error, 0u);
  }
  size_t dispatch_errors = 0;
  for (const FlightRecord& record : monitor_->flight_recorder().Snapshot()) {
    if (record.reason == "dispatch_error" &&
        record.op == static_cast<uint16_t>(ApiOp::kTakeInterrupt)) {
      ++dispatch_errors;
    }
  }
  // Eight identical (op, error) failures -> one post-mortem record.
  EXPECT_EQ(dispatch_errors, 1u);
}

TEST_F(MetricsExportTest, CounterKillSwitchFreezesAccounting) {
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  const uint64_t before =
      monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)];
  ASSERT_GE(before, 1u);

  monitor_->set_counters_enabled(false);
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)],
            before);

  // Re-enabling resumes from the frozen value; the scrape works throughout.
  monitor_->set_counters_enabled(true);
  ASSERT_EQ(Call(0, ApiOp::kCreateDomain).error, 0u);
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)],
            before + 1);
  EXPECT_NE(monitor_->ExportMetrics().find("tyche_api_calls_total"), std::string::npos);
}

}  // namespace
}  // namespace tyche

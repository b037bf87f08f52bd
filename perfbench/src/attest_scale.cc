// Copyright 2026 The Tyche Reproduction Authors.
// attest_scale: one attestation report at N domains. A VT-x monitor holds
// 2 048 sealed single-page domains and runs in concurrent dispatch mode,
// driven by one dispatching thread: two and four threads did not hold steady
// (see the README), since with equal-cost reads the threads run in lockstep
// and a write waits for either nothing or a whole attestation. The seeded
// stream is 15 of 16 kAttestDomain calls on a Zipf(1.1)-picked domain, every
// report checked with VerifySerializedReport against the pinned measurement,
// and 1 of 16 an OS share -> revoke of a page into one of four unsealed
// domains: the writes that pay for any index upkeep.

#include <memory>
#include <optional>

#include "perfbench/src/workloads.h"
#include "src/fleet/zipf.h"
#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/support/prng.h"
#include "src/tyche/loader.h"
#include "src/tyche/verifier.h"

namespace perfbench {
namespace {

using tyche::ApiOp;
using tyche::ApiRegs;
using tyche::ApiResult;
using tyche::CapId;
using tyche::kPageSize;

constexpr uint32_t kDomains = 2048;
constexpr uint32_t kUnsealed = 4;
constexpr uint64_t kMiB = 1ull << 20;
// The deterministic window: not a whole number of 16-op write periods, so
// the seeded write phase decides whether the window holds one more write.
constexpr uint64_t kDetOps = 196;
constexpr uint64_t kProbeEveryOps = 32;
constexpr uint64_t kRotateEveryOps = 64;
constexpr uint64_t kReportBufferBytes = 64 * 1024;

struct World {
  std::optional<tyche::Testbed> testbed;
  std::vector<CapId> sealed_handles;
  std::vector<uint64_t> sealed_ids;
  std::vector<tyche::Digest> golden;  // pinned at install time
  std::vector<CapId> unsealed_handles;
  CapId share_source = 0;  // OS capability over the shared page
  uint64_t share_base = 0;
  uint64_t buffer_base = 0;
  tyche::SchnorrPublicKey monitor_key;
};

// Builds the monitor and its 2 048 sealed domains through the monitor API
// (set-up is not a measured op), then verifies the monitor's identity once:
// the key every report is checked under comes from a verified tier-1 quote.
std::unique_ptr<World> BuildWorld(Report* report) {
  auto world = std::make_unique<World>();
  tyche::TestbedOptions options;
  options.cores = 1;
  options.memory_bytes = 128 * kMiB;
  // About six metadata frames per domain context, like a dense fleet node.
  options.monitor_memory_bytes = tyche::AlignUp((kDomains + 64) * 6 * kPageSize, kMiB);
  auto testbed = tyche::Testbed::Create(options);
  if (!testbed.ok()) {
    report->Check(false, "attest_scale boot failed: " + testbed.status().ToString());
    return nullptr;
  }
  world->testbed.emplace(std::move(*testbed));
  tyche::Testbed& bed = *world->testbed;
  tyche::Monitor& monitor = bed.monitor();
  const uint64_t window_base = bed.Scratch(kMiB);
  world->share_base = window_base + (kDomains + 16) * kPageSize;
  world->buffer_base = world->share_base + kPageSize;
  auto source = bed.OsMemCap({window_base, kPageSize});
  if (!source.ok()) {
    report->Check(false, "no OS capability over the domain windows");
    return nullptr;
  }
  CapId from = *source;
  for (uint32_t d = 0; d < kDomains; ++d) {
    const auto created = monitor.CreateDomain(0, "sealed-" + std::to_string(d));
    if (!created.ok()) {
      report->Check(false, "create failed: " + created.status().ToString());
      return nullptr;
    }
    const tyche::AddrRange page{window_base + d * kPageSize, kPageSize};
    std::vector<uint8_t> content(kPageSize, static_cast<uint8_t>(d * 131 + 7));
    (void)bed.machine().memory().Write(page.base, content);
    const auto granted = monitor.GrantMemory(
        0, from, created->handle, page, tyche::Perms(tyche::Perms::kRWX),
        tyche::CapRights(tyche::CapRights::kAll),
        tyche::RevocationPolicy(tyche::RevocationPolicy::kZeroMemory));
    if (!granted.ok() || granted->remainders.empty()) {
      report->Check(false, "grant failed");
      return nullptr;
    }
    // The remainder above the granted page covers the next window.
    from = granted->remainders.back();
    if (!monitor.SetEntryPoint(0, created->handle, page.base).ok() ||
        !monitor.ExtendMeasurement(0, created->handle, page).ok() ||
        !monitor.Seal(0, created->handle).ok()) {
      report->Check(false, "seal failed");
      return nullptr;
    }
    // The customer pins the measurement the sealed domain reports.
    const auto sealed = monitor.GetDomain(created->domain);
    if (!sealed.ok()) {
      report->Check(false, "sealed domain missing");
      return nullptr;
    }
    world->sealed_handles.push_back(created->handle);
    world->sealed_ids.push_back(created->domain);
    world->golden.push_back((*sealed)->measurement);
  }
  for (uint32_t u = 0; u < kUnsealed; ++u) {
    const auto created = monitor.CreateDomain(0, "tenant-" + std::to_string(u));
    if (!created.ok()) {
      report->Check(false, "tenant create failed");
      return nullptr;
    }
    world->unsealed_handles.push_back(created->handle);
  }
  auto share_source = bed.OsMemCap({world->share_base, kPageSize});
  const auto identity = monitor.Identity(0x1D);
  tyche::RemoteVerifier verifier(bed.machine().tpm().attestation_key(),
                                 bed.golden_firmware(), bed.golden_monitor());
  if (!share_source.ok() || !identity.ok() || !verifier.VerifyMonitor(*identity, 0x1D).ok()) {
    report->Check(false, "monitor identity or share source unavailable");
    return nullptr;
  }
  world->share_source = *share_source;
  world->monitor_key = identity->monitor_key;
  return world;
}

class Stream {
 public:
  Stream(World* world, uint64_t seed, bool trace, Report* report)
      : world_(world),
        prng_(seed * 0x9E3779B97F4A7C15ull + 1),
        zipf_(kDomains, 1.1),
        ops_(trace, report),
        write_phase_(seed % 16) {}

  // Runs op number `op` of the seeded stream. Exactly one op in 16 is a
  // write, at a seeded phase.
  void Run(uint64_t op) {
    if (op % 16 == write_phase_) {
      ShareRevoke(op);
    } else {
      Attest(op);
    }
  }

  // Whether to change CPU after op `op`: right after a write, so the op
  // that pays for the cold caches is always an attestation, whatever the
  // seeded phase.
  bool RotateAfter(uint64_t op) const { return op % kRotateEveryOps == write_phase_; }

  OpRecorder& ops() { return ops_; }

 private:
  void Attest(uint64_t trace) {
    const uint32_t d = zipf_.Pick(prng_);
    const uint64_t nonce = ++nonce_;
    const uint64_t parent = ops_.spans.Open("workload.attest", trace, 0, NowNs());
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(ApiOp::kAttestDomain);
    regs.arg0 = world_->sealed_handles[d];
    regs.arg1 = nonce;
    regs.arg2 = world_->buffer_base;
    regs.arg3 = kReportBufferBytes;
    const ApiResult result = ops_.Dispatch(&world_->testbed->monitor(), 0, regs,
                                           "monitor.attest", false, trace, parent, "attest_scale");
    if (result.error == 0) {
      std::vector<uint8_t> wire(result.ret0);
      const bool read = world_->testbed->machine().memory().Read(world_->buffer_base, wire).ok();
      const uint64_t verify_start = NowNs();
      const auto verified = tyche::VerifySerializedReport(wire, world_->monitor_key, nonce,
                                                          &world_->golden[d]);
      ops_.spans.Record("tyche.report_verify", trace, parent, verify_start, NowNs());
      if (!read || !verified.ok() || verified->domain != world_->sealed_ids[d]) {
        ops_.Fail("report for domain " + std::to_string(d) + " did not verify" +
                  (verified.ok() ? std::string() : ": " + verified.status().ToString()));
      }
    }
    ops_.spans.Close(parent, NowNs());
  }

  void ShareRevoke(uint64_t trace) {
    const CapId target = world_->unsealed_handles[prng_.Below(kUnsealed)];
    const uint64_t parent = ops_.spans.Open("workload.share_revoke", trace, 0, NowNs());
    tyche::Monitor* monitor = &world_->testbed->monitor();
    ApiRegs share;
    share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
    share.arg0 = world_->share_source;
    share.arg1 = target;
    share.arg2 = world_->share_base;
    share.arg3 = kPageSize;
    share.arg4 = tyche::Perms::kRW;
    share.arg5 = static_cast<uint64_t>(tyche::CapRights::kShare) << 8;
    const ApiResult shared =
        ops_.Dispatch(monitor, 0, share, "monitor.share", true, trace, parent, "attest_scale");
    ApiRegs revoke;
    revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);
    revoke.arg0 = shared.ret0;
    ops_.Dispatch(monitor, 0, revoke, "monitor.revoke", true, trace, parent, "attest_scale");
    ops_.spans.Close(parent, NowNs());
  }

  World* world_;
  tyche::Prng prng_;
  tyche::ZipfPicker zipf_;
  OpRecorder ops_;
  uint64_t nonce_ = 0;
  uint64_t write_phase_;
};

uint64_t ContentionCount(tyche::Monitor& monitor) {
  return monitor.telemetry().exclusive_contention()->Value() +
         monitor.telemetry().shared_contention()->Value();
}

}  // namespace

Report RunAttestScale(const Options& options) {
  Report report;
  std::unique_ptr<World> world;
  const double setup_s = MedianSetupSeconds(options.setup_repeats, [&] {
    world.reset();
    world = BuildWorld(&report);
  });
  if (world == nullptr) {
    return report;
  }
  tyche::Monitor& monitor = world->testbed->monitor();
  if (options.trace) {
    monitor.profiler().set_enabled(true);
  }
  if (!monitor.EnableConcurrentDispatch().ok()) {
    report.Check(false, "concurrent dispatch refused");
    return report;
  }

  Stream stream(world.get(), options.seed, options.trace, &report);
  OpRecorder& ops = stream.ops();
  const HwCounters start_counters = HwCounters::Of(monitor);
  const uint64_t start_contention = ContentionCount(monitor);
  HwCounters det_counters;
  uint64_t det_ops = 0;
  double det_rss_mb = 0.0;
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t measured_ns = 0;
  CpuRotation cpus;
  for (uint64_t op = 0; measured_ns < budget_ns || op < kDetOps; ++op) {
    const uint64_t start = NowNs();
    stream.Run(op);
    measured_ns += NowNs() - start;
    if (op + 1 == kDetOps) {
      det_counters = HwCounters::Of(monitor) - start_counters;
      det_ops = ops.ops;
      det_rss_mb = PeakRssMb();
    }
    if (stream.RotateAfter(op)) {
      cpus.Next();
    }
    // Capability-query probes on live state, outside the measured time.
    if (options.trace && (op + 1) % kProbeEveryOps == 0) {
      uint64_t t0 = NowNs();
      const auto view = monitor.MemoryView();
      ops.spans.Record("capability.memory_view", op, 0, t0, NowNs());
      t0 = NowNs();
      const uint32_t refs = monitor.engine().MemoryRefCount(
          {world->share_base - (16 + kDomains) * kPageSize, kPageSize});
      ops.spans.Record("capability.refcount", op, 0, t0, NowNs());
      report.Check(!view.empty() && refs == 1, "capability view of a sealed page is wrong");
    }
  }
  const uint64_t contention = ContentionCount(monitor) - start_contention;
  monitor.DisableConcurrentDispatch();
  CheckMonitorAtEnd(monitor, "attest_scale", &report);

  const double ops_per_s = static_cast<double>(ops.ops) * 1e9 / static_cast<double>(measured_ns);
  ReportEndToEnd(ops, setup_s, ops_per_s, det_rss_mb, det_counters, det_ops, &report);
  report.notes["domains"] = kDomains;
  if (options.trace) {
    ReportHwPerOp(det_counters, det_ops, &report);
    PhaseTotals phases;
    phases.Add(monitor.profiler());
    ReportPhaseShares(phases, &report);
    report.layer["monitor.lock_contention_per_op"] = {
        static_cast<double>(contention) / static_cast<double>(report.attempted), "count"};
    ReportSpanMedians(ops.spans, &report);
    report.spans = std::move(ops.spans);
  }
  return report;
}

}  // namespace perfbench

// Copyright 2026 The Tyche Reproduction Authors.
// dispatch_churn: the paper's sandbox use. One thread drives a population of
// 64 live sandboxes through the register ABI (Dispatch) in serial mode:
// share / revoke a channel page, grant -> revoke a page, transition and
// return, register + fast transition and return, destroy + respawn (create,
// grant pages, set entry, share the core). No attestation, no sealing.
//
// One seeded action sequence is generated in blocks; every block runs on an
// x86/VT-x testbed and then, unchanged, on a RISC-V/PMP testbed, so the two
// backends see the same op stream from mirrored states. Every epoch of
// kBlocksPerEpoch blocks boots a fresh testbed pair, and checks it before
// tearing it down.

#include <memory>
#include <optional>

#include "perfbench/src/workloads.h"
#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/support/prng.h"
#include "src/tyche/loader.h"

namespace perfbench {
namespace {

using tyche::ApiOp;
using tyche::ApiRegs;
using tyche::ApiResult;
using tyche::CapId;
using tyche::kPageSize;

constexpr uint32_t kSlots = 64;
// Each of the six action kinds this many times per block.
constexpr uint32_t kPerKind = 10;
constexpr uint32_t kActionsPerBlock = 6 * kPerKind;
// Every epoch boots fresh testbeds and runs this many blocks on each: the
// OS's capability history grows with every grant and revoke, so an epoch is
// one host lifetime and every epoch of every run sees the same growth.
constexpr uint64_t kBlocksPerEpoch = 40;
// Epochs over which the simulated statistics are taken.
constexpr uint64_t kDetEpochs = 2;
constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kWindowPages = 4;
// The core sandboxes run on; the OS keeps core 0 for its own calls.
constexpr tyche::CoreId kRunCore = 1;
// Probe cadence of the traced run (blocks between capability-query samples).
constexpr uint64_t kProbeEveryBlocks = 8;

enum class Action : uint8_t {
  // Shares the slot's channel page, or revokes it when it is shared.
  kShareChannel,
  kRevokeChannel,
  kGrantRevoke,
  kTransition,
  kFastTransition,
  kDestroyRespawn,
};

const char* ActionSpanName(Action action) {
  switch (action) {
    case Action::kShareChannel:
      return "workload.share_channel";
    case Action::kRevokeChannel:
      return "workload.revoke_channel";
    case Action::kGrantRevoke:
      return "workload.grant_revoke";
    case Action::kTransition:
      return "workload.transition_return";
    case Action::kFastTransition:
      return "workload.fast_transition_return";
    case Action::kDestroyRespawn:
      return "workload.destroy_respawn";
  }
  return "workload.unknown";
}

struct Step {
  Action action;
  uint32_t slot;
};

// The seeded action stream. Every block holds each of the six action kinds
// (share channel, revoke channel, grant -> revoke, transition/return, fast
// transition/return, destroy + respawn) kPerKind times, in a seeded order on
// seeded slots. The mix is uniform because nothing in the repository records
// how often a sandbox does each; share and revoke of a slot's channel page
// alternate, so the two draw from one pool of 2 x kPerKind. The stream models
// only what the ABI caller knows (which slots hold a shared channel page), so
// it never depends on the program's results.
class ActionStream {
 public:
  ActionStream(uint64_t seed, uint64_t epoch)
      : prng_(seed * 0x9E3779B97F4A7C15ull + epoch), channel_shared_(kSlots, false) {}

  std::vector<Step> NextBlock() {
    std::vector<Action> actions(2 * kPerKind, Action::kShareChannel);
    for (const Action action : {Action::kGrantRevoke, Action::kTransition,
                                Action::kFastTransition, Action::kDestroyRespawn}) {
      actions.insert(actions.end(), kPerKind, action);
    }
    for (size_t i = actions.size() - 1; i > 0; --i) {
      std::swap(actions[i], actions[prng_.Below(i + 1)]);
    }
    std::vector<Step> block;
    block.reserve(kActionsPerBlock);
    for (Action action : actions) {
      const auto slot = static_cast<uint32_t>(prng_.Below(kSlots));
      if (action == Action::kShareChannel) {
        action = channel_shared_[slot] ? Action::kRevokeChannel : Action::kShareChannel;
        channel_shared_[slot] = !channel_shared_[slot];
      } else if (action == Action::kDestroyRespawn) {
        channel_shared_[slot] = false;
      }
      block.push_back({action, slot});
    }
    return block;
  }

 private:
  tyche::Prng prng_;
  std::vector<bool> channel_shared_;
};

struct Slot {
  CapId handle = 0;
  uint64_t domain = 0;
  CapId os_window_cap = 0;  // the OS capability the window is granted from
  CapId os_extra_cap = 0;   // ... and the grant -> revoke page
  CapId channel_share = 0;  // the sandbox's channel capability, 0 if none
  bool fast_registered = false;
};

class Bed {
 public:
  static std::unique_ptr<Bed> Create(tyche::IsaArch arch, Report* report);

  tyche::Monitor& monitor() { return testbed_->monitor(); }

  // Runs one block of actions; every Dispatch call is one op of `ops`.
  void RunBlock(const std::vector<Step>& block, uint64_t first_trace, OpRecorder* ops);
  // Capability-query probes on live state (traced run only).
  void Probe(SpanLog* spans, uint64_t trace, uint32_t slot);
  void CheckAtEnd() { CheckMonitorAtEnd(monitor(), name_, report_); }

 private:
  Bed() = default;

  ApiResult Call(ApiOp op, tyche::CoreId core, const char* span_name, bool write,
                 uint64_t trace, uint64_t parent, OpRecorder* ops, uint64_t a0 = 0,
                 uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0, uint64_t a4 = 0,
                 uint64_t a5 = 0);
  // create + grant window + set entry + share the run core.
  void Spawn(uint32_t slot, uint64_t trace, uint64_t parent, OpRecorder* ops);
  // The OS capability a revoked grant handed back (the newest child of the
  // capability it was granted from), falling back to a lineage search.
  CapId RestoredCap(CapId granted_from, tyche::AddrRange range);

  // Windows, grant -> revoke pages and channel pages each sit back to back
  // in their own arena: the OS keeps a few contiguous regions however the
  // sandboxes churn, which the 16-entry PMP file needs.
  uint64_t WindowBase(uint32_t slot) const {
    return arena_ + slot * kWindowPages * kPageSize;
  }
  uint64_t ExtraBase(uint32_t slot) const { return arena_ + kMiB + slot * kPageSize; }
  uint64_t ChannelBase(uint32_t slot) const { return arena_ + 2 * kMiB + slot * kPageSize; }

  const char* name_ = "";
  bool fast_path_ = false;
  std::optional<tyche::Testbed> testbed_;
  std::vector<Slot> slots_;
  uint64_t arena_ = 0;
  CapId os_channel_cap_ = 0;
  CapId os_core_cap_ = 0;
  Report* report_ = nullptr;
};

uint64_t Pack(uint8_t rights, uint8_t policy) {
  return (static_cast<uint64_t>(rights) << 8) | policy;
}

std::unique_ptr<Bed> Bed::Create(tyche::IsaArch arch, Report* report) {
  auto bed = std::unique_ptr<Bed>(new Bed());
  bed->report_ = report;
  bed->name_ = arch == tyche::IsaArch::kX86_64 ? "vtx" : "pmp";
  bed->fast_path_ = arch == tyche::IsaArch::kX86_64;
  tyche::TestbedOptions options;
  options.arch = arch;
  // The smallest machine that holds the three arenas: every epoch's
  // hardware audit walks every OS page.
  options.memory_bytes = 8 * kMiB;
  auto testbed = tyche::Testbed::Create(options);
  if (!testbed.ok()) {
    report->Check(false, std::string("testbed boot failed: ") + testbed.status().ToString());
    return nullptr;
  }
  bed->testbed_.emplace(std::move(*testbed));
  bed->arena_ = bed->testbed_->Scratch(kMiB);
  auto core_cap = bed->testbed_->OsCoreCap(kRunCore);
  if (!core_cap.ok()) {
    report->Check(false, "no OS core capability");
    return nullptr;
  }
  bed->os_core_cap_ = *core_cap;
  bed->slots_.resize(kSlots);
  OpRecorder setup(false, report);
  // Carve one exact OS capability per extra page with a grant -> revoke to
  // the slot's sandbox, so the run's grants never split a larger one.
  for (uint32_t s = 0; s < kSlots; ++s) {
    bed->Spawn(s, 0, 0, &setup);
    const tyche::AddrRange extra{bed->ExtraBase(s), kPageSize};
    auto from = tyche::FindMemoryCap(bed->monitor(), bed->testbed_->os_domain(), extra);
    if (!from.ok()) {
      report->Check(false, "no OS capability over an extra page");
      return nullptr;
    }
    const ApiResult granted =
        bed->Call(ApiOp::kGrantMemory, 0, "setup", true, 0, 0, &setup, *from,
                  bed->slots_[s].handle, extra.base, extra.size, tyche::Perms::kRW,
                  Pack(tyche::CapRights::kAll, tyche::RevocationPolicy::kZeroMemory));
    bed->Call(ApiOp::kRevoke, 0, "setup", true, 0, 0, &setup, granted.ret0);
    bed->slots_[s].os_extra_cap = bed->RestoredCap(*from, extra);
  }
  auto channel = tyche::FindMemoryCap(bed->monitor(), bed->testbed_->os_domain(),
                                      {bed->ChannelBase(0), kSlots * kPageSize});
  if (!channel.ok() || setup.failed != 0) {
    report->Check(false, std::string(bed->name_) + ": sandbox set-up failed");
    return nullptr;
  }
  bed->os_channel_cap_ = *channel;
  return bed;
}

ApiResult Bed::Call(ApiOp op, tyche::CoreId core, const char* span_name, bool write,
                    uint64_t trace, uint64_t parent, OpRecorder* ops, uint64_t a0,
                    uint64_t a1, uint64_t a2, uint64_t a3, uint64_t a4, uint64_t a5) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(op);
  regs.arg0 = a0;
  regs.arg1 = a1;
  regs.arg2 = a2;
  regs.arg3 = a3;
  regs.arg4 = a4;
  regs.arg5 = a5;
  return ops->Dispatch(&monitor(), core, regs, span_name, write, trace, parent, name_);
}

void Bed::Spawn(uint32_t s, uint64_t trace, uint64_t parent, OpRecorder* ops) {
  Slot& slot = slots_[s];
  const ApiResult created =
      Call(ApiOp::kCreateDomain, 0, "monitor.create", true, trace, parent, ops);
  slot = Slot{created.ret1, created.ret0, slot.os_window_cap, slot.os_extra_cap, 0, false};
  const tyche::AddrRange window{WindowBase(s), kWindowPages * kPageSize};
  if (slot.os_window_cap == 0) {
    auto from = tyche::FindMemoryCap(monitor(), testbed_->os_domain(), window);
    slot.os_window_cap = from.ok() ? *from : 0;
  }
  Call(ApiOp::kGrantMemory, 0, "monitor.grant", true, trace, parent, ops, 
       slot.os_window_cap, slot.handle, window.base, window.size, tyche::Perms::kRWX,
       Pack(tyche::CapRights::kAll, tyche::RevocationPolicy::kZeroMemory));
  Call(ApiOp::kSetEntryPoint, 0, "monitor.set_entry", true, trace, parent, ops, 
       slot.handle, window.base);
  Call(ApiOp::kShareUnit, 0, "monitor.share_unit", true, trace, parent, ops, 
       os_core_cap_, slot.handle, Pack(tyche::CapRights::kShare, 0));
}

CapId Bed::RestoredCap(CapId granted_from, tyche::AddrRange range) {
  const auto source = monitor().engine().Get(granted_from);
  if (source.ok() && !(*source)->children.empty()) {
    const auto restored = monitor().engine().Get((*source)->children.back());
    if (restored.ok() && (*restored)->active() &&
        (*restored)->owner == testbed_->os_domain() && (*restored)->range == range) {
      return (*restored)->id;
    }
  }
  const auto found = tyche::FindMemoryCap(monitor(), testbed_->os_domain(), range);
  report_->Check(found.ok(), std::string(name_) + ": revoked grant not restored to the OS");
  return found.ok() ? *found : 0;
}

void Bed::RunBlock(const std::vector<Step>& block, uint64_t first_trace, OpRecorder* ops) {
  const uint64_t pack_rw = Pack(tyche::CapRights::kAll, tyche::RevocationPolicy::kZeroMemory);
  for (size_t i = 0; i < block.size(); ++i) {
    const Step& step = block[i];
    Slot& slot = slots_[step.slot];
    const uint64_t trace = first_trace + i;
    const uint64_t parent = ops->spans.Open(ActionSpanName(step.action), trace, 0, NowNs());
    switch (step.action) {
      case Action::kShareChannel: {
        const uint64_t page = ChannelBase(step.slot);
        slot.channel_share =
            Call(ApiOp::kShareMemory, 0, "monitor.share", true, trace, parent, ops, 
                 os_channel_cap_, slot.handle, page, kPageSize, tyche::Perms::kRW,
                 Pack(tyche::CapRights::kShare, 0))
                .ret0;
        break;
      }
      case Action::kRevokeChannel:
        Call(ApiOp::kRevoke, 0, "monitor.revoke", true, trace, parent, ops, 
             slot.channel_share);
        slot.channel_share = 0;
        break;
      case Action::kGrantRevoke: {
        const tyche::AddrRange extra{ExtraBase(step.slot), kPageSize};
        const ApiResult granted =
            Call(ApiOp::kGrantMemory, 0, "monitor.grant", true, trace, parent, ops, 
                 slot.os_extra_cap, slot.handle, extra.base, extra.size, tyche::Perms::kRW,
                 pack_rw);
        Call(ApiOp::kRevoke, 0, "monitor.revoke", true, trace, parent, ops, 
             granted.ret0);
        slot.os_extra_cap = RestoredCap(slot.os_extra_cap, extra);
        break;
      }
      case Action::kTransition:
        Call(ApiOp::kTransition, kRunCore, "monitor.transition", false, trace, parent, ops,
              slot.handle);
        Call(ApiOp::kReturn, kRunCore, "monitor.return", false, trace, parent, ops);
        break;
      case Action::kFastTransition:
        if (!fast_path_) {
          // No VMFUNC-style fast path on PMP: the runtime falls back to
          // the trapping transition.
          Call(ApiOp::kTransition, kRunCore, "monitor.transition", false, trace, parent,
               ops,  slot.handle);
          Call(ApiOp::kReturn, kRunCore, "monitor.return", false, trace, parent, ops);
          break;
        }
        if (!slot.fast_registered) {
          Call(ApiOp::kRegisterFastTransition, kRunCore, "monitor.register_fast", false, trace,
               parent, ops,  slot.handle);
          slot.fast_registered = true;
        }
        Call(ApiOp::kFastTransition, kRunCore, "monitor.fast_transition", false, trace, parent,
             ops,  slot.domain);
        Call(ApiOp::kReturn, kRunCore, "monitor.return", false, trace, parent, ops);
        break;
      case Action::kDestroyRespawn: {
        const tyche::AddrRange window{WindowBase(step.slot), kWindowPages * kPageSize};
        Call(ApiOp::kDestroyDomain, 0, "monitor.destroy", true, trace, parent, ops, 
             slot.handle);
        slot.os_window_cap = RestoredCap(slot.os_window_cap, window);
        Spawn(step.slot, trace, parent, ops);
        break;
      }
    }
    ops->spans.Close(parent, NowNs());
  }
}

void Bed::Probe(SpanLog* spans, uint64_t trace, uint32_t slot) {
  uint64_t start = NowNs();
  const auto view = monitor().MemoryView();
  spans->Record("capability.memory_view", trace, 0, start, NowNs());
  report_->Check(!view.empty(), std::string(name_) + ": empty memory view");
  start = NowNs();
  const uint32_t refs =
      monitor().engine().MemoryRefCount({WindowBase(slot), kWindowPages * kPageSize});
  spans->Record("capability.refcount", trace, 0, start, NowNs());
  report_->Check(refs == 1, std::string(name_) + ": sandbox window not exclusive");
}

}  // namespace

Report RunDispatchChurn(const Options& options) {
  Report report;
  OpRecorder ops(options.trace, &report);
  Samples setup_s;
  PhaseTotals phases;
  HwCounters det_counters;
  uint64_t det_ops = 0;
  double det_rss_mb = 0.0;
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t measured_ns = 0;
  uint64_t epoch = 0;
  CpuRotation cpus;
  // Whole epochs only: every epoch replays the same history trajectory.
  while (measured_ns < budget_ns || epoch < kDetEpochs) {
    const uint64_t setup_start = NowNs();
    std::unique_ptr<Bed> vtx = Bed::Create(tyche::IsaArch::kX86_64, &report);
    std::unique_ptr<Bed> pmp = Bed::Create(tyche::IsaArch::kRiscV, &report);
    setup_s.Add(static_cast<double>(NowNs() - setup_start) / 1e9);
    if (vtx == nullptr || pmp == nullptr) {
      return report;
    }
    Bed* beds[2] = {vtx.get(), pmp.get()};
    HwCounters epoch_start;
    for (Bed* bed : beds) {
      bed->monitor().profiler().set_enabled(options.trace);
      epoch_start += HwCounters::Of(bed->monitor());
    }
    ActionStream stream(options.seed, epoch);
    const uint64_t epoch_ops = ops.ops;
    // Once per epoch, when the fresh testbeds start cold anyway: every move
    // refills the private caches from the shared L3, so moving more often
    // slows the run and ties it to the load of the host's other tenants.
    cpus.Next();
    for (uint64_t block = 0; block < kBlocksPerEpoch; ++block) {
      const std::vector<Step> steps = stream.NextBlock();
      const uint64_t first_trace = (epoch * kBlocksPerEpoch + block) * kActionsPerBlock;
      const uint64_t start = NowNs();
      for (Bed* bed : beds) {
        bed->RunBlock(steps, first_trace, &ops);
      }
      measured_ns += NowNs() - start;
      if (options.trace && (block + 1) % kProbeEveryBlocks == 0) {
        for (Bed* bed : beds) {
          bed->Probe(&ops.spans, first_trace, steps.front().slot);
        }
      }
    }
    if (epoch < kDetEpochs) {
      HwCounters epoch_end;
      for (Bed* bed : beds) {
        epoch_end += HwCounters::Of(bed->monitor());
      }
      det_counters += epoch_end - epoch_start;
      det_ops += ops.ops - epoch_ops;
      det_rss_mb = PeakRssMb();
    }
    // Each epoch runs its own seeded stream, so every epoch's monitors are
    // checked before they are torn down, outside the measured time.
    for (Bed* bed : beds) {
      bed->CheckAtEnd();
      phases.Add(bed->monitor().profiler());
    }
    ++epoch;
  }

  const double ops_per_s = static_cast<double>(ops.ops) * 1e9 / static_cast<double>(measured_ns);
  ReportEndToEnd(ops, setup_s.Percentile(50), ops_per_s, det_rss_mb, det_counters, det_ops,
                 &report);
  report.notes["setup_samples"] = static_cast<double>(setup_s.size());
  report.notes["epochs"] = static_cast<double>(epoch);
  if (options.trace) {
    ReportHwPerOp(det_counters, det_ops, &report);
    ReportPhaseShares(phases, &report);
    report.layer["monitor.lock_contention_per_op"] = {0.0, "count"};
    ReportSpanMedians(ops.spans, &report);
    report.spans = std::move(ops.spans);
  }
  return report;
}

}  // namespace perfbench

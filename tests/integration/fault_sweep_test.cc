// Copyright 2026 The Tyche Reproduction Authors.
// The exhaustive fault sweep: a fixed workload touches every subsystem
// (domain lifecycle, circular memory sharing, device moves, transitions,
// sealed storage, the OS allocator), a counting run learns how often each
// injection site is reached, and then the workload is replayed with a fault
// injected at the FIRST, MIDDLE and LAST occurrence of every site, on both
// backends. After every single injected failure the monitor must hold the
// transactional line: a typed error surfaced to the caller, the capability
// tree and the hardware agree (AuditHardwareConsistency), and the exported
// journal still verifies offline with its shadow replay matching the live
// capability-graph snapshot -- no torn states, ever.
//
// A randomized soak (seeded, logged, replayable via TYCHE_FAULT_SEED) then
// samples (site, occurrence) pairs uniformly for >= 100 extra trials.

#include <gtest/gtest.h>

#include <vector>

#include "src/os/testbed.h"
#include "tests/testing/sweep.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr PciBdf kNic = Testbed::kNicBdf;

// A freshly booted machine per trial. Boot runs with the injector quiet, so
// occurrence numbering always starts at the first workload instruction --
// that is what makes "the Nth occurrence" reproducible across trials.
Result<Testbed> Boot(IsaArch arch) {
  return Testbed::Create({.arch = arch, .with_nic = true});
}

// Every non-OK error code the workload observed, in order. Under injection
// the workload keeps going after a failed step (later steps may fail with
// follow-on errors); the sweep only requires that the INJECTED code
// surfaced somewhere -- no failure may be silently swallowed.
struct WorkloadLog {
  std::vector<ErrorCode> errors;

  void Note(uint64_t error) {
    if (error != 0) {
      errors.push_back(static_cast<ErrorCode>(error));
    }
  }
  void Note(const Status& status) {
    if (!status.ok()) {
      errors.push_back(status.code());
    }
  }
  bool Saw(ErrorCode code) const {
    for (const ErrorCode e : errors) {
      if (e == code) {
        return true;
      }
    }
    return false;
  }
};

// The deterministic workload. Exercises, in a fixed order: domain creation,
// cross-handles, a circular memory-sharing loop (OS -> A -> B -> A), a
// memory grant with remainders, a device grant + revoke (IOMMU / IOPMP
// moves), an executable share + seal + transition + sealed storage
// (AEAD open), an OS process (range + page-table frame allocators), a
// cascading revocation of the circular loop, and both domain destructions.
WorkloadLog RunWorkload(Testbed& bed) {
  WorkloadLog log;
  Monitor* monitor = &bed.monitor();
  Machine& machine = bed.machine();

  const auto call = [&](CoreId core, ApiOp op, auto... args) {
    const ApiResult result = sweep::Call(monitor, core, op, args...);
    log.Note(result.error);
    return result;
  };
  const auto cap = [](const Result<CapId>& found) { return found.ok() ? *found : kInvalidCap; };
  const uint64_t pack_all = static_cast<uint64_t>(CapRights::kAll) << 8;

  // Two domains plus mutual handles.
  const ApiResult a = call(0, ApiOp::kCreateDomain);
  const ApiResult b = call(0, ApiOp::kCreateDomain);
  const ApiResult b_for_a = call(0, ApiOp::kShareUnit, b.ret1, a.ret1, pack_all);
  const ApiResult a_for_b = call(0, ApiOp::kShareUnit, a.ret1, b.ret1, pack_all);

  // Circular memory: OS -> A (16 pages), A -> B (8), B -> A (4).
  const AddrRange window{bed.Scratch(kMiB), 16 * kPageSize};
  const ApiResult to_a = call(0, ApiOp::kShareMemory, cap(bed.OsMemCap(window)), a.ret1,
                              window.base, window.size, Perms::kRW, pack_all);
  machine.cpu(1).set_current_domain(a.ret0);
  const ApiResult to_b = call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                              window.base, 8 * kPageSize, Perms::kRW, pack_all);
  machine.cpu(2).set_current_domain(b.ret0);
  call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0, window.base, 4 * kPageSize,
       Perms::kRW, pack_all);
  machine.cpu(1).set_current_domain(bed.os_domain());
  machine.cpu(2).set_current_domain(bed.os_domain());

  // A grant that splits the OS's root range into remainders.
  const AddrRange grant_window{bed.Scratch(4 * kMiB), 8 * kPageSize};
  const ApiResult granted =
      call(0, ApiOp::kGrantMemory, cap(bed.OsMemCap(grant_window)), a.ret1,
           grant_window.base, grant_window.size, Perms::kRW, pack_all);

  // Device migration: grant the NIC to A (detach from the OS, attach to A),
  // then revoke it back (detach from A, restore + attach to the OS).
  const ApiResult nic_granted =
      call(0, ApiOp::kGrantUnit, cap(bed.OsDeviceCap(kNic.value)), a.ret1, pack_all);
  call(0, ApiOp::kRevoke, nic_granted.ret0);

  // Executable window, entry point, seal, transition onto core 3, sealed
  // storage round trip (UnsealData crosses the AEAD-open fault site).
  const AddrRange exec_window{bed.Scratch(8 * kMiB), 4 * kPageSize};
  call(0, ApiOp::kShareMemory, cap(bed.OsMemCap(exec_window)), a.ret1, exec_window.base,
       exec_window.size, Perms::kRX, pack_all);
  call(0, ApiOp::kShareUnit, cap(bed.OsCoreCap(3)), a.ret1, pack_all);
  call(0, ApiOp::kSetEntryPoint, a.ret1, exec_window.base);
  call(0, ApiOp::kSeal, a.ret1);
  call(3, ApiOp::kTransition, a.ret1);
  const std::vector<uint8_t> secret = {0x74, 0x79, 0x63, 0x68, 0x65};
  const auto sealed = monitor->SealData(3, secret);
  log.Note(sealed.status());
  if (sealed.ok()) {
    const auto opened = monitor->UnsealData(3, *sealed);
    log.Note(opened.status());
  }
  call(3, ApiOp::kReturn);

  // OS-side pressure: a process allocation walks the range allocator and the
  // page-table frame pool.
  const auto pid = bed.os().CreateProcess("sweep", 16 * kPageSize);
  log.Note(pid.status());
  if (pid.ok()) {
    log.Note(bed.os().KillProcess(*pid));
  }

  // Cascading revocation of the circular loop, then the grant's restore,
  // then both domains go away entirely.
  call(0, ApiOp::kRevoke, to_a.ret0);
  call(0, ApiOp::kRevoke, granted.ret0);
  call(0, ApiOp::kDestroyDomain, b.ret1);
  call(0, ApiOp::kDestroyDomain, a.ret1);
  return log;
}

// Counting run: boots clean, runs the workload once under observation, and
// returns the per-site occurrence counts of the sweepable sites. The clean
// workload must be error-free -- otherwise triggers derived from it would be
// meaningless.
sweep::SiteCounts CountOccurrences(IsaArch arch) {
  auto bed = Boot(arch);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) {
    return {};
  }
  WorkloadLog log;
  auto counts = sweep::CountSites([&] { log = RunWorkload(*bed); }, sweep::Sweepable);
  EXPECT_TRUE(log.errors.empty())
      << "clean workload reported " << log.errors.size() << " errors, first: "
      << ErrorCodeName(log.errors.empty() ? ErrorCode::kOk : log.errors[0]);
  sweep::ExpectHardwareAndJournalSound(bed->monitor());
  return counts;
}

// One injected trial: fresh machine, one (site, occurrence) fault, full
// workload, then the invariants with the injector quiescent again: the
// injected code surfaced as a typed error, and hardware and journal agree
// with the capability tree.
void RunTrial(IsaArch arch, const FaultPlan& plan) {
  auto bed = Boot(arch);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  WorkloadLog log;
  {
    ScopedFaultPlan scoped(plan);
    log = RunWorkload(*bed);
  }
  sweep::ExpectFiredOnce(plan);
  const ErrorCode expected_code = plan.specs()[0].code;
  EXPECT_TRUE(log.Saw(expected_code))
      << "injected " << ErrorCodeName(expected_code) << " never surfaced as a typed error";
  sweep::ExpectHardwareAndJournalSound(bed->monitor());
}

void RunSweep(IsaArch arch, const std::vector<std::string_view>& required_sites) {
  const auto counts = CountOccurrences(arch);
  // Coverage: the workload reaches every site this backend registers.
  sweep::ExpectReached(counts, required_sites);
  sweep::ForEachFirstMiddleLast("fault/grid", arch, counts,
                                [arch](const FaultPlan& plan) { RunTrial(arch, plan); });
}

void RunSoak(IsaArch arch, int trials) {
  sweep::Soak("fault/soak", arch, 0xC0FFEE + static_cast<uint64_t>(arch), trials,
              CountOccurrences(arch), [arch](const FaultPlan& plan) { RunTrial(arch, plan); });
}

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnVtx) {
  RunSweep(IsaArch::kX86_64,
           {faults::kFrameAlloc, faults::kIommuAttach, faults::kRangeAlloc, faults::kAeadOpen,
            faults::kVtxCreateContext, faults::kVtxSyncMemory, faults::kVtxAttachDevice,
            faults::kVtxDetachDevice, faults::kVtxBindCore});
}

TEST(FaultSweepTest, EverySiteFirstMiddleLastOnPmp) {
  RunSweep(IsaArch::kRiscV,
           {faults::kFrameAlloc, faults::kRangeAlloc, faults::kAeadOpen,
            faults::kPmpCreateContext, faults::kPmpRecompile, faults::kPmpBindCore,
            faults::kPmpSyncDevice, faults::kPmpAttachDevice, faults::kPmpDetachDevice});
}

TEST(FaultSweepTest, RandomizedSeedSoakOnVtx) { RunSoak(IsaArch::kX86_64, 50); }

TEST(FaultSweepTest, RandomizedSeedSoakOnPmp) { RunSoak(IsaArch::kRiscV, 50); }

}  // namespace
}  // namespace tyche

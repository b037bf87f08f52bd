// Copyright 2026 The Tyche Reproduction Authors.
// Failure injection: resource exhaustion and hostile inputs at every layer.
// The requirement is graceful degradation -- a typed error, a consistent
// capability tree, and hardware state that still passes the audit.

#include <gtest/gtest.h>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/vtx_backend.h"
#include "src/support/faults.h"
#include "src/tyche/channel.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class FailureInjectionTest : public BootedMachineTest {
 protected:
  // A circular sharing loop: OS -> A -> B -> A over one scratch window.
  // Returns the root share (OS -> A); revoking it cascades through the loop.
  struct Loop {
    DomainId domain_a = kInvalidDomain;
    DomainId domain_b = kInvalidDomain;
    CapId handle_a = kInvalidCap;
    CapId handle_b = kInvalidCap;
    CapId root_share = kInvalidCap;
    AddrRange window;
  };

  Loop BuildCircularLoop() {
    Loop loop;
    const auto a = monitor_->CreateDomain(0, "a");
    const auto b = monitor_->CreateDomain(0, "b");
    EXPECT_TRUE(a.ok() && b.ok());
    loop.domain_a = a->domain;
    loop.domain_b = b->domain;
    loop.handle_a = a->handle;
    loop.handle_b = b->handle;
    const auto b_for_a = monitor_->ShareUnit(0, loop.handle_b, loop.handle_a,
                                             CapRights(CapRights::kAll), RevocationPolicy{});
    const auto a_for_b = monitor_->ShareUnit(0, loop.handle_a, loop.handle_b,
                                             CapRights(CapRights::kAll), RevocationPolicy{});
    EXPECT_TRUE(b_for_a.ok() && a_for_b.ok());

    loop.window = Scratch(kMiB, 16 * kPageSize);
    const auto to_a = monitor_->ShareMemory(0, OsMemCap(loop.window), loop.handle_a,
                                            loop.window, Perms(Perms::kRW),
                                            CapRights(CapRights::kAll), RevocationPolicy{});
    EXPECT_TRUE(to_a.ok());
    loop.root_share = *to_a;
    machine_->cpu(1).set_current_domain(loop.domain_a);
    const auto to_b = monitor_->ShareMemory(
        1, *to_a, *b_for_a, AddrRange{loop.window.base, 8 * kPageSize},
        Perms(Perms::kRW), CapRights(CapRights::kAll), RevocationPolicy{});
    EXPECT_TRUE(to_b.ok());
    machine_->cpu(2).set_current_domain(loop.domain_b);
    const auto back_to_a = monitor_->ShareMemory(
        2, *to_b, *a_for_b, AddrRange{loop.window.base, 4 * kPageSize},
        Perms(Perms::kRead), CapRights{}, RevocationPolicy{});
    EXPECT_TRUE(back_to_a.ok());
    machine_->cpu(1).set_current_domain(os_domain_);
    machine_->cpu(2).set_current_domain(os_domain_);
    return loop;
  }

  void VerifyJournalAgainstLiveGraph() {
    const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
    const Status verified = RemoteVerifier::VerifyJournal(
        monitor_->ExportJournal(), monitor_->public_key(), &graph_json);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
  }
};

TEST_F(FailureInjectionTest, MetadataPoolExhaustionIsGraceful) {
  // A tiny monitor reservation: EPT frames run out after a few domains.
  MachineConfig config;
  config.memory_bytes = 512ull << 20;
  Machine machine(config);
  BootParams params;
  params.firmware_image = firmware_;
  params.monitor_image = monitor_image_;
  params.monitor_memory_bytes = 1ull << 20;  // 64 KiB image + ~240 frames
  auto outcome = MeasuredBoot(&machine, params);
  // Booting itself needs frames for the OS's EPT over ~508 MiB: with a
  // 1 MiB reservation this must fail CLEANLY, not crash.
  if (!outcome.ok()) {
    EXPECT_EQ(outcome.status().code(), ErrorCode::kResourceExhausted);
    return;
  }
  // If it booted, keep creating domains until the pool runs dry.
  Monitor& monitor = *outcome->monitor;
  Status last = OkStatus();
  for (int i = 0; i < 4096 && last.ok(); ++i) {
    last = monitor.CreateDomain(0, "eater").status();
  }
  EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(*monitor.AuditHardwareConsistency());
}

TEST_F(FailureInjectionTest, BootRejectsBadParameters) {
  MachineConfig config;
  config.memory_bytes = 16ull << 20;
  {
    Machine machine(config);
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = monitor_image_;
    params.monitor_memory_bytes = 3 * 1024;  // not page aligned
    EXPECT_FALSE(MeasuredBoot(&machine, params).ok());
  }
  {
    Machine machine(config);
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = monitor_image_;
    params.monitor_memory_bytes = 64ull << 20;  // larger than the machine
    EXPECT_FALSE(MeasuredBoot(&machine, params).ok());
  }
  {
    Machine machine(config);
    const std::vector<uint8_t> huge(8ull << 20, 1);
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = huge;  // image larger than its reservation
    params.monitor_memory_bytes = 4ull << 20;
    EXPECT_FALSE(MeasuredBoot(&machine, params).ok());
  }
}

TEST_F(FailureInjectionTest, ApiRejectsForeignAndStaleHandles) {
  const auto created = monitor_->CreateDomain(0, "victim");
  ASSERT_TRUE(created.ok());
  // A different domain cannot use the OS's handle.
  const AddrRange window = Scratch(kMiB, kMiB);
  ASSERT_TRUE(monitor_
                  ->GrantMemory(0, OsMemCap(window), created->handle, window,
                                Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_
                  ->ShareUnit(0, OsCoreCap(1), created->handle, CapRights{},
                              RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->SetEntryPoint(0, created->handle, window.base).ok());
  ASSERT_TRUE(monitor_->Transition(1, created->handle).ok());
  // Inside the victim: the OS's handle id is meaningless here.
  EXPECT_EQ(monitor_->Seal(1, created->handle).code(), ErrorCode::kCapabilityNotOwned);
  ASSERT_TRUE(monitor_->ReturnFromDomain(1).ok());

  // Stale handle after destroy.
  ASSERT_TRUE(monitor_->DestroyDomain(0, created->handle).ok());
  EXPECT_FALSE(monitor_->Transition(1, created->handle).ok());
  EXPECT_FALSE(monitor_->Seal(0, created->handle).ok());
  EXPECT_FALSE(monitor_->DestroyDomain(0, created->handle).ok());
}

TEST_F(FailureInjectionTest, ZeroAndOverflowRanges) {
  const auto created = monitor_->CreateDomain(0, "d");
  ASSERT_TRUE(created.ok());
  const CapId os_mem = OsMemCap(Scratch(kMiB, kMiB));
  // Zero-size share.
  EXPECT_FALSE(monitor_
                   ->ShareMemory(0, os_mem, created->handle, AddrRange{Scratch(0, 0).base, 0},
                                 Perms(Perms::kRW), CapRights{}, RevocationPolicy{})
                   .ok());
  // Range whose end overflows uint64.
  EXPECT_FALSE(monitor_
                   ->ShareMemory(0, os_mem, created->handle,
                                 AddrRange{~0ull - kPageSize + 1, 2 * kPageSize},
                                 Perms(Perms::kRW), CapRights{}, RevocationPolicy{})
                   .ok());
  // Memory accesses beyond physical memory.
  EXPECT_FALSE(machine_->CheckedRead64(0, machine_->memory().size()).ok());
  EXPECT_FALSE(machine_->CheckedRead64(0, ~0ull - 4).ok());
}

TEST_F(FailureInjectionTest, TransitionStackUnderflowAndCoreBounds) {
  EXPECT_EQ(monitor_->ReturnFromDomain(0).code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(monitor_->Transition(99, CapId{1}).ok());  // bogus core
  EXPECT_FALSE(monitor_->FastReturn(1).ok());
}

TEST_F(FailureInjectionTest, LoaderRejectsBrokenInputs) {
  TycheImage image = TycheImage::MakeDemo("broken", 2 * kPageSize, 0);
  // Entry point outside any segment region is caught at seal time.
  image.set_entry_offset(64 * kMiB);
  LoadOptions load;
  load.base = Scratch(kMiB, 0).base;
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {OsCoreCap(1)};
  EXPECT_FALSE(LoadImage(monitor_.get(), 0, image, load).ok());
  // Unaligned base.
  TycheImage good = TycheImage::MakeDemo("good", kPageSize, 0);
  load.base += 7;
  EXPECT_FALSE(LoadImage(monitor_.get(), 0, good, load).ok());
  // Region overlapping memory another domain already owns exclusively.
  load.base = Scratch(2 * kMiB, 0).base;
  const auto first = LoadImage(monitor_.get(), 0, good, load);
  ASSERT_TRUE(first.ok());
  const auto second = LoadImage(monitor_.get(), 0, good, load);
  EXPECT_FALSE(second.ok());
  // After all the failures: tree and hardware still agree.
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

TEST_F(FailureInjectionTest, RevokeCascadeUnderBackendFailureNeverTearsState) {
  const Loop loop = BuildCircularLoop();
  {
    // The first EPT sync of the cascade's effect application fails.
    ScopedFaultPlan plan(FaultPlan::Single(faults::kVtxSyncMemory, /*trigger=*/1));
    const Status revoked = monitor_->Revoke(0, loop.root_share);
    // Revocation is a cleanup guarantee (§3.2): it is never rolled back. The
    // backend failure surfaces as the typed injected error instead.
    EXPECT_EQ(revoked.code(), ErrorCode::kAccessViolation) << revoked.ToString();
  }
  // The tree committed: the whole loop is gone for BOTH domains.
  EXPECT_TRUE(monitor_->engine().EffectivePerms(loop.domain_a, loop.window.base).empty());
  EXPECT_TRUE(monitor_->engine().EffectivePerms(loop.domain_b, loop.window.base).empty());
  // The backend fell back to its fail-safe (deny) state for the domain whose
  // sync was torn: hardware enforces a subset of the tree, so the audit and
  // the offline journal replay both still hold.
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
  VerifyJournalAgainstLiveGraph();

  // Liveness: a later successful operation repairs enforcement fully.
  const AddrRange fresh{loop.window.base, 4 * kPageSize};
  const auto reshared = monitor_->ShareMemory(0, OsMemCap(loop.window), loop.handle_a,
                                              fresh, Perms(Perms::kRW),
                                              CapRights(CapRights::kAll), RevocationPolicy{});
  ASSERT_TRUE(reshared.ok()) << reshared.status().ToString();
  auto* backend = static_cast<VtxBackend*>(&monitor_->backend());
  EXPECT_FALSE(backend->Degraded(loop.domain_a));
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

TEST_F(FailureInjectionTest, DestroyDomainUnderBackendFailureStillPurges) {
  const Loop loop = BuildCircularLoop();
  Status destroyed = OkStatus();
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kVtxSyncMemory, /*trigger=*/1));
    destroyed = monitor_->DestroyDomain(0, loop.handle_b);
  }
  // The purge is the commit point: B is gone and its handle is stale, even
  // though the backend reported a (typed) failure applying the effects.
  EXPECT_EQ(destroyed.code(), ErrorCode::kAccessViolation) << destroyed.ToString();
  EXPECT_FALSE(monitor_->engine().IsRegistered(loop.domain_b));
  EXPECT_FALSE(monitor_->DestroyDomain(0, loop.handle_b).ok());
  // A keeps what it holds independently of B; what it received from B died
  // with the purge.
  EXPECT_FALSE(monitor_->engine().EffectivePerms(loop.domain_a, loop.window.base).empty());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
  VerifyJournalAgainstLiveGraph();

  // The other domain can still be destroyed cleanly afterwards.
  EXPECT_TRUE(monitor_->DestroyDomain(0, loop.handle_a).ok());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
  VerifyJournalAgainstLiveGraph();
}

TEST_F(FailureInjectionTest, ShareRollbackRestoresTreeAndJournalReplays) {
  const Loop loop = BuildCircularLoop();
  const auto before = monitor_->engine().DomainCaps(loop.domain_b).size();
  const AddrRange extra = Scratch(4 * kMiB, 4 * kPageSize);
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kVtxSyncMemory, /*trigger=*/1));
    const auto shared = monitor_->ShareMemory(0, OsMemCap(extra), loop.handle_b, extra,
                                              Perms(Perms::kRW), CapRights(CapRights::kAll),
                                              RevocationPolicy{});
    // The share is transactional: backend failure -> typed error AND the
    // capability-tree mutation is rolled back.
    EXPECT_EQ(shared.status().code(), ErrorCode::kAccessViolation);
  }
  EXPECT_EQ(monitor_->engine().DomainCaps(loop.domain_b).size(), before);
  EXPECT_TRUE(monitor_->engine().EffectivePerms(loop.domain_b, extra.base).empty());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
  VerifyJournalAgainstLiveGraph();
}

TEST_F(FailureInjectionTest, ChannelSurvivesHostileCounters) {
  // A malicious peer scribbles garbage into the channel's control words;
  // the other side must fail cleanly, not read out of bounds.
  const AddrRange region = Scratch(8 * kMiB, 2 * kPageSize);
  auto channel = Channel::Create(monitor_.get(), 0, region);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(channel->Send(0, std::vector<uint8_t>{1, 2, 3}).ok());
  // Corrupt the length prefix to something absurd.
  ASSERT_TRUE(machine_->CheckedWrite64(0, region.base + kPageSize, ~0ull).ok());
  const auto received = channel->Recv(0);
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), ErrorCode::kInternal);
}

TEST_F(FailureInjectionTest, PartialLoadFailureLeavesConsistentState) {
  // Loading with a core capability that is not the caller's fails midway
  // (after the domain exists, before sealing); the tree must stay sane and
  // subsequent loads at the same address must work.
  const TycheImage image = TycheImage::MakeDemo("partial", kPageSize, 0);
  LoadOptions load;
  load.base = Scratch(16 * kMiB, 0).base;
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {CapId{424242}};  // bogus
  EXPECT_FALSE(LoadImage(monitor_.get(), 0, image, load).ok());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
  // The leaked half-built domain holds the range; the OS can still operate
  // elsewhere.
  load.base = Scratch(18 * kMiB, 0).base;
  load.core_caps = {OsCoreCap(1)};
  EXPECT_TRUE(LoadImage(monitor_.get(), 0, image, load).ok());
}

}  // namespace
}  // namespace tyche

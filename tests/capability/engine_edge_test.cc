// Copyright 2026 The Tyche Reproduction Authors.
// Second batch of capability-engine tests: unit-resource lineage, restore
// semantics, view limits, purge interactions -- the paths the first batch
// and the property test exercise only incidentally.

#include <gtest/gtest.h>

#include "src/capability/engine.h"
#include "src/support/faults.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

class EngineEdgeTest : public ::testing::Test {
 protected:
  EngineEdgeTest() {
    engine_.RegisterDomain(0, CapabilityEngine::kNoCreator);
    engine_.RegisterDomain(1, 0);
    engine_.RegisterDomain(2, 0);
  }

  CapabilityEngine engine_;
};

TEST_F(EngineEdgeTest, GrantUnitRevokeRestoresHolder) {
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 3,
                                       CapRights(CapRights::kAll));
  const auto grant = engine_.GrantUnit(0, core, 1, CapRights(CapRights::kAll),
                                       RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(engine_.HasUnit(0, ResourceKind::kCpuCore, 3));
  EXPECT_TRUE(engine_.HasUnit(1, ResourceKind::kCpuCore, 3));

  const auto revoke = engine_.Revoke(0, grant->granted);
  ASSERT_TRUE(revoke.ok());
  EXPECT_NE(revoke->restored, kInvalidCap);
  EXPECT_TRUE(engine_.HasUnit(0, ResourceKind::kCpuCore, 3));
  EXPECT_FALSE(engine_.HasUnit(1, ResourceKind::kCpuCore, 3));
  // The restore effect names the unit for the backend.
  bool saw_attach = false;
  for (const CapEffect& effect : revoke->effects.effects) {
    if (effect.kind == CapEffect::Kind::kAttachUnit && effect.domain == 0) {
      saw_attach = true;
      EXPECT_EQ(effect.unit, 3u);
    }
  }
  EXPECT_TRUE(saw_attach);
}

TEST_F(EngineEdgeTest, RevokeOfRestoreCreatesNoSecondRestore) {
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 1,
                                       CapRights(CapRights::kAll));
  const auto grant = engine_.GrantUnit(0, core, 1, CapRights(CapRights::kAll),
                                       RevocationPolicy{});
  const auto first = engine_.Revoke(0, grant->granted);
  ASSERT_TRUE(first.ok());
  const auto second = engine_.Revoke(0, first->restored);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->restored, kInvalidCap);  // dropping a restore is final
  EXPECT_FALSE(engine_.HasUnit(0, ResourceKind::kCpuCore, 1));
}

TEST_F(EngineEdgeTest, DomainHandlesAreShareableUnits) {
  const CapId handle = *engine_.MintUnit(0, ResourceKind::kDomain, 2,
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const auto shared = engine_.ShareUnit(0, handle, 1, CapRights(CapRights::kManage),
                                        RevocationPolicy{}, &effects);
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(engine_.HasUnit(1, ResourceKind::kDomain, 2));
  // Attenuation holds for handles too.
  EXPECT_FALSE((*engine_.Get(*shared))->rights.CanShare());
  EXPECT_TRUE((*engine_.Get(*shared))->rights.CanManage());
}

TEST_F(EngineEdgeTest, MemoryViewHonoursLimit) {
  (void)*engine_.MintMemory(0, AddrRange{0, 4 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  (void)*engine_.MintMemory(0, AddrRange{64 * kMiB, 4 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  const auto full = engine_.MemoryView();
  const auto limited = engine_.MemoryView(8 * kMiB);
  EXPECT_EQ(full.size(), 2u);
  ASSERT_EQ(limited.size(), 1u);
  EXPECT_EQ(limited[0].range.base, 0u);
}

TEST_F(EngineEdgeTest, PurgeRestoresGrantorsOfReceivedGrants) {
  // Domain 1 received a grant from domain 0. Purging domain 1 must give the
  // memory back to domain 0 (with the restore capability).
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  const auto grant = engine_.GrantMemory(0, root, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.EffectivePerms(0, 0).empty());
  const auto purge = engine_.PurgeDomain(1);
  ASSERT_TRUE(purge.ok());
  // The restore carries the PARENT capability's permissions: the grantor
  // regains what it originally had (RWX), not the attenuated grant.
  EXPECT_EQ(engine_.EffectivePerms(0, 0).mask, Perms::kRWX);
  EXPECT_FALSE(engine_.IsRegistered(1));
}

TEST_F(EngineEdgeTest, PurgeUnregisteredDomainFails) {
  EXPECT_EQ(engine_.PurgeDomain(42).code(), ErrorCode::kNotFound);
}

TEST_F(EngineEdgeTest, CaptureRestoreRoundTripsAfterPurge) {
  // Lineage nodes are never deleted, so after a purge the engine legitimately
  // holds inactive caps owned by a now-unregistered domain. Capture of that
  // state must round-trip through Restore (regression: migration staging
  // rejected any destination that had ever been a migration source).
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  const auto grant = engine_.GrantMemory(0, root, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.PurgeDomain(1).ok());
  ASSERT_FALSE(engine_.IsRegistered(1));

  CapabilityEngine copy;
  ASSERT_TRUE(copy.Restore(engine_.Capture()).ok());
  EXPECT_EQ(copy.EffectivePerms(0, 0).mask, Perms::kRWX);
  EXPECT_FALSE(copy.IsRegistered(1));
  // An ACTIVE cap with an unregistered owner is still corruption.
  EngineImage bad = engine_.Capture();
  for (Capability& cap : bad.caps) {
    if (cap.owner == 1 && !cap.active()) {
      cap.state = CapState::kActive;
      break;
    }
  }
  CapabilityEngine reject;
  EXPECT_EQ(reject.Restore(bad).code(), ErrorCode::kInvalidArgument);
}

TEST_F(EngineEdgeTest, RevokeAuthorizationViaParentNeedsRevokeRight) {
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  // Domain 1 gets a cap WITHOUT revoke rights, shares onward to domain 2.
  const CapId mid = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW),
                                         CapRights(CapRights::kShare), RevocationPolicy{},
                                         &effects);
  const CapId leaf = *engine_.ShareMemory(1, mid, 2, AddrRange{0, kMiB},
                                          Perms(Perms::kRead), CapRights{},
                                          RevocationPolicy{}, &effects);
  // Domain 1 owns `mid` (leaf's parent) but lacks kRevoke: it cannot revoke
  // the leaf...
  EXPECT_EQ(engine_.Revoke(1, leaf).code(), ErrorCode::kCapabilityRightsViolation);
  // ... though domain 2 may always drop its own.
  EXPECT_TRUE(engine_.Revoke(2, leaf).ok());
}

TEST_F(EngineEdgeTest, ShareUnitValidation) {
  const CapId mem = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                        CapRights(CapRights::kAll));
  CapEffects effects;
  // Memory caps must go through ShareMemory.
  EXPECT_EQ(engine_.ShareUnit(0, mem, 1, CapRights{}, RevocationPolicy{}, &effects).code(),
            ErrorCode::kInvalidArgument);
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 0, CapRights{});
  // Without the share right.
  EXPECT_EQ(engine_.ShareUnit(0, core, 1, CapRights{}, RevocationPolicy{}, &effects).code(),
            ErrorCode::kCapabilityRightsViolation);
  // Unit caps must not go through ShareMemory.
  const CapId core2 = *engine_.MintUnit(0, ResourceKind::kCpuCore, 1,
                                        CapRights(CapRights::kAll));
  EXPECT_EQ(engine_
                .ShareMemory(0, core2, 1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                             CapRights{}, RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(EngineEdgeTest, ExclusivelyOwnedNeedsFullCoverage) {
  (void)*engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  (void)*engine_.MintMemory(0, AddrRange{2 * kMiB, kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  // The hole at [1M, 2M) breaks coverage.
  EXPECT_FALSE(engine_.ExclusivelyOwned(0, AddrRange{0, 3 * kMiB}));
  EXPECT_TRUE(engine_.ExclusivelyOwned(0, AddrRange{0, kMiB}));
  EXPECT_TRUE(engine_.ExclusivelyOwned(0, AddrRange{2 * kMiB, kMiB}));
}

TEST_F(EngineEdgeTest, RevokeRootOfCircularShareKillsTheWholeLoop) {
  // 0 -> 1 -> 2 -> 1: a cycle in the domain graph, still a tree in the
  // lineage graph. Revoking the root must cascade through every cap in the
  // loop -- including the one 1 received "back" from 2.
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId to_1 = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId to_2 = *engine_.ShareMemory(1, to_1, 2, AddrRange{0, kMiB / 2},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId back_to_1 = *engine_.ShareMemory(2, to_2, 1, AddrRange{0, kMiB / 4},
                                               Perms(Perms::kRead), CapRights{},
                                               RevocationPolicy{}, &effects);
  ASSERT_FALSE(engine_.EffectivePerms(2, 0).empty());

  const auto revoked = engine_.Revoke(0, to_1);
  ASSERT_TRUE(revoked.ok());
  EXPECT_EQ(revoked->revoked_count, 3u);  // to_1, to_2, back_to_1
  for (const CapId cap : {to_1, to_2, back_to_1}) {
    EXPECT_FALSE((*engine_.Get(cap))->active());
  }
  EXPECT_TRUE(engine_.EffectivePerms(1, 0).empty());
  EXPECT_TRUE(engine_.EffectivePerms(2, 0).empty());
  // The root itself survives with full access.
  EXPECT_EQ(engine_.EffectivePerms(0, 0).mask, Perms::kRWX);
}

TEST_F(EngineEdgeTest, PurgeDomainInsideCircularShareLeavesPeersSound) {
  // 1 and 2 hold slices of each other's view; purging 1 must deactivate the
  // whole derivation chain that passes through 1, even the part owned by 2,
  // without touching what 2 holds independently.
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId to_1 = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId to_2 = *engine_.ShareMemory(1, to_1, 2, AddrRange{0, kMiB / 2},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  (void)*engine_.ShareMemory(2, to_2, 1, AddrRange{0, kMiB / 4}, Perms(Perms::kRead),
                             CapRights{}, RevocationPolicy{}, &effects);
  // 2 also holds an independent slice straight from 0.
  const CapId direct_to_2 = *engine_.ShareMemory(0, root, 2,
                                                 AddrRange{kMiB / 2, kMiB / 2},
                                                 Perms(Perms::kRead), CapRights{},
                                                 RevocationPolicy{}, &effects);

  const auto purge = engine_.PurgeDomain(1);
  ASSERT_TRUE(purge.ok());
  EXPECT_FALSE(engine_.IsRegistered(1));
  // Everything derived through 1 is dead -- including 2's received slice.
  EXPECT_FALSE((*engine_.Get(to_2))->active());
  EXPECT_TRUE(engine_.EffectivePerms(2, 0).empty());
  // The independent slice survives untouched.
  EXPECT_TRUE((*engine_.Get(direct_to_2))->active());
  EXPECT_EQ(engine_.EffectivePerms(2, kMiB / 2).mask, Perms::kRead);
  // Purge-generated effects must name the SURVIVING domain's lost range so
  // the backend resyncs it -- not just the purged domain's.
  bool unmaps_peer = false;
  for (const CapEffect& effect : purge->effects.effects) {
    if (effect.kind == CapEffect::Kind::kUnmapMemory && effect.domain == 2) {
      unmaps_peer = true;
    }
  }
  EXPECT_TRUE(unmaps_peer);
}

TEST_F(EngineEdgeTest, CapToStringIsInformative) {
  const CapId mem = *engine_.MintMemory(0, AddrRange{0x1000, 0x1000}, Perms(Perms::kRW),
                                        CapRights(CapRights::kAll));
  const std::string text = (*engine_.Get(mem))->ToString();
  EXPECT_NE(text.find("memory"), std::string::npos);
  EXPECT_NE(text.find("rw-"), std::string::npos);
  EXPECT_NE(text.find("active"), std::string::npos);
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 5, CapRights{});
  EXPECT_NE((*engine_.Get(core))->ToString().find("unit=5"), std::string::npos);
}

TEST_F(EngineEdgeTest, SealedDomainMayGrantToOwnChild) {
  // The nested-enclave allowance covers grants, not just shares.
  engine_.RegisterDomain(7, /*creator=*/1);
  const CapId root = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  engine_.SealDomain(1);
  const auto grant = engine_.GrantMemory(1, root, 7, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  EXPECT_TRUE(grant.ok());
  // But not to a stranger (domain 2, created by 0).
  engine_.RegisterDomain(8, 1);
  const CapId root2 = *engine_.MintMemory(8, AddrRange{2 * kMiB, kMiB},
                                          Perms(Perms::kRWX), CapRights(CapRights::kAll));
  engine_.SealDomain(8);
  const auto leak = engine_.GrantMemory(8, root2, 2, AddrRange{2 * kMiB, kMiB},
                                        Perms(Perms::kRW), CapRights{}, RevocationPolicy{});
  EXPECT_EQ(leak.code(), ErrorCode::kDomainSealed);
}

TEST_F(EngineEdgeTest, PurgeFailureLeavesDomainRegisteredAndNothingOrphaned) {
  // Regression: PurgeDomain used to drop a failed per-root revoke on the
  // floor and erase the domain anyway, leaving its remaining caps active but
  // ownerless. Now a mid-purge failure must propagate, keep the domain
  // registered, and report exactly the roots that DID commit.
  const CapId a = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  const CapId b = *engine_.MintMemory(1, AddrRange{2 * kMiB, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  const CapId c = *engine_.MintMemory(1, AddrRange{4 * kMiB, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  // Give root b a child so its (committed) cascade is visible in the outcome.
  CapEffects effects;
  const CapId child = *engine_.ShareMemory(1, b, 2, AddrRange{2 * kMiB, kPageSize},
                                           Perms(Perms::kRW), CapRights(CapRights::kAll),
                                           RevocationPolicy{}, &effects);

  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEnginePurgeRevoke, /*trigger=*/3,
                                           ErrorCode::kResourceExhausted));
    const auto purge = engine_.PurgeDomain(1, &partial);
    ASSERT_FALSE(purge.ok());
    EXPECT_EQ(purge.code(), ErrorCode::kResourceExhausted);
  }
  // The domain survived; the committed prefix (a, then b with its cascade)
  // is reported and really revoked; the rest is untouched.
  EXPECT_TRUE(engine_.IsRegistered(1));
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial[0].first, a);
  EXPECT_EQ(partial[1].first, b);
  EXPECT_EQ(partial[1].second.revoked_count, 2u);  // b + the shared child
  EXPECT_FALSE((*engine_.Get(a))->active());
  EXPECT_FALSE((*engine_.Get(b))->active());
  EXPECT_FALSE((*engine_.Get(child))->active());
  EXPECT_TRUE((*engine_.Get(c))->active());
  EXPECT_EQ(engine_.DomainCaps(1).size(), 1u);

  // A retry purges the remainder and unregisters the domain for good.
  const auto retry = engine_.PurgeDomain(1);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->revoked_count, 1u);
  EXPECT_FALSE(engine_.IsRegistered(1));
  EXPECT_TRUE(engine_.DomainCaps(1).empty());
  EXPECT_FALSE((*engine_.Get(c))->active());
}

TEST_F(EngineEdgeTest, PurgeFailureOnFirstRootCommitsNothing) {
  const CapId a = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEnginePurgeRevoke, /*trigger=*/1,
                                           ErrorCode::kInternal));
    EXPECT_FALSE(engine_.PurgeDomain(1, &partial).ok());
  }
  EXPECT_TRUE(partial.empty());
  EXPECT_TRUE(engine_.IsRegistered(1));
  EXPECT_TRUE((*engine_.Get(a))->active());
}


// Every rejection of the four transfer entry points, each sent through every
// entry point it applies to, with the ErrorCode pinned. Rows that break two
// rules at once pin which check runs first. A rejection must consume no id:
// the journal's replay relies on validation preceding any mint.
class TransferRejectionTest : public EngineEdgeTest {
 protected:
  // Domain 3 is sealed (a destination); 4 is sealed with caps of its own and
  // created 5 before sealing.
  TransferRejectionTest() {
    engine_.RegisterDomain(3, 0);
    engine_.RegisterDomain(4, 0);
    engine_.RegisterDomain(5, 4);
    const CapRights all(CapRights::kAll);
    const CapRights no_share(CapRights::kGrant | CapRights::kRevoke | CapRights::kManage);
    const CapRights no_grant(CapRights::kShare | CapRights::kRevoke | CapRights::kManage);
    const CapRights narrow(CapRights::kShare | CapRights::kGrant);
    const CapRights rights[] = {all, no_share, no_grant, narrow, all};
    for (int i = 0; i < 5; ++i) {
      mem_[i] = *engine_.MintMemory(0, AddrRange{i * kMiB, kMiB}, Perms(Perms::kRW), rights[i]);
      unit_[i] = *engine_.MintUnit(0, ResourceKind::kCpuCore, i, rights[i]);
    }
    EXPECT_TRUE(engine_.Revoke(0, mem_[kInactive]).ok());
    EXPECT_TRUE(engine_.Revoke(0, unit_[kInactive]).ok());
    sealed_mem_ = *engine_.MintMemory(4, AddrRange{8 * kMiB, kMiB}, Perms(Perms::kRW), all);
    sealed_unit_ = *engine_.MintUnit(4, ResourceKind::kCpuCore, 8, all);
    engine_.SealDomain(3);
    engine_.SealDomain(4);
  }

  enum Source {
    kAll, kNoShare, kNoGrant, kNarrow, kInactive, kSealedOwner,
    // The cap of the other kind: a memory entry point gets a unit cap and a
    // unit entry point a memory cap.
    kOtherKind, kOtherKindInactive, kOtherKindNoShare,
  };
  enum Entry { kShareMemory, kGrantMemory, kShareUnit, kGrantUnit };

  // The source cap an entry point sees for `source`.
  CapId SourceFor(Entry entry, Source source) const {
    const bool memory = entry == kShareMemory || entry == kGrantMemory;
    switch (source) {
      case kSealedOwner:
        return memory ? sealed_mem_ : sealed_unit_;
      case kOtherKind:
        return memory ? unit_[kAll] : mem_[kAll];
      case kOtherKindInactive:
        return memory ? unit_[kInactive] : mem_[kInactive];
      case kOtherKindNoShare:
        return memory ? unit_[kNoShare] : mem_[kNoShare];
      default:
        return memory ? mem_[source] : unit_[source];
    }
  }

  ErrorCode Send(Entry entry, CapDomainId requester, CapId src, CapDomainId dst,
                 AddrRange sub, uint8_t perms, uint8_t rights) {
    const RevocationPolicy policy;
    CapEffects effects;
    switch (entry) {
      case kShareMemory:
        return engine_.ShareMemory(requester, src, dst, sub, Perms(perms), CapRights(rights),
                                   policy, &effects).code();
      case kGrantMemory:
        return engine_.GrantMemory(requester, src, dst, sub, Perms(perms), CapRights(rights),
                                   policy).code();
      case kShareUnit:
        return engine_.ShareUnit(requester, src, dst, CapRights(rights), policy, &effects)
            .code();
      case kGrantUnit:
        return engine_.GrantUnit(requester, src, dst, CapRights(rights), policy).code();
    }
    return ErrorCode::kOk;
  }

  CapId mem_[5] = {};
  CapId unit_[5] = {};
  CapId sealed_mem_ = kInvalidCap;
  CapId sealed_unit_ = kInvalidCap;
};

TEST_F(TransferRejectionTest, EveryRejectionThroughEveryEntryPoint) {
  constexpr uint64_t kPage = kPageSize;
  constexpr uint8_t kRW = Perms::kRW;
  constexpr uint8_t kAllRights = CapRights::kAll;
  const AddrRange ok_sub{0, 4 * kPage};
  struct Row {
    const char* what;
    std::vector<Entry> entries;
    CapDomainId requester;
    Source source;
    CapDomainId dst;
    AddrRange sub;  // offset into the source's range (memory entry points)
    uint8_t perms;
    uint8_t rights;
    ErrorCode want;
  };
  const std::vector<Entry> every = {kShareMemory, kGrantMemory, kShareUnit, kGrantUnit};
  const std::vector<Entry> memory = {kShareMemory, kGrantMemory};
  const std::vector<Entry> shares = {kShareMemory, kShareUnit};
  const std::vector<Entry> grants = {kGrantMemory, kGrantUnit};
  const std::vector<Row> rows = {
      // One failing rule each.
      {"not owner", every, 1, kAll, 2, ok_sub, kRW, 0, ErrorCode::kCapabilityNotOwned},
      {"inactive", every, 0, kInactive, 1, ok_sub, kRW, 0, ErrorCode::kCapabilityRevoked},
      {"wrong kind", every, 0, kOtherKind, 1, ok_sub, kRW, 0, ErrorCode::kInvalidArgument},
      {"no share right", shares, 0, kNoShare, 1, ok_sub, kRW, 0,
       ErrorCode::kCapabilityRightsViolation},
      {"no grant right", grants, 0, kNoGrant, 1, ok_sub, kRW, 0,
       ErrorCode::kCapabilityRightsViolation},
      {"sub-range outside", memory, 0, kAll, 1, {kMiB - kPage, 2 * kPage}, kRW, 0,
       ErrorCode::kOutOfRange},
      {"sub-range empty", memory, 0, kAll, 1, {0, 0}, kRW, 0, ErrorCode::kOutOfRange},
      {"sub-range base unaligned", memory, 0, kAll, 1, {16, kPage}, kRW, 0,
       ErrorCode::kInvalidArgument},
      {"sub-range size unaligned", memory, 0, kAll, 1, {0, kPage + 16}, kRW, 0,
       ErrorCode::kInvalidArgument},
      {"perms empty", memory, 0, kAll, 1, ok_sub, Perms::kNone, 0,
       ErrorCode::kCapabilityRightsViolation},
      {"perms exceed", memory, 0, kAll, 1, ok_sub, Perms::kRWX, 0,
       ErrorCode::kCapabilityRightsViolation},
      {"rights exceed", every, 0, kNarrow, 1, ok_sub, kRW, kAllRights,
       ErrorCode::kCapabilityRightsViolation},
      {"destination sealed", every, 0, kAll, 3, ok_sub, kRW, 0, ErrorCode::kDomainSealed},
      {"sealed source to a non-child", every, 4, kSealedOwner, 1, ok_sub, kRW, 0,
       ErrorCode::kDomainSealed},
      {"destination unregistered", every, 0, kAll, 42, ok_sub, kRW, 0, ErrorCode::kNotFound},
      // Two failing rules: the first check in the order wins.
      {"not owner + inactive", every, 1, kInactive, 2, ok_sub, kRW, 0,
       ErrorCode::kCapabilityNotOwned},
      {"inactive + wrong kind", every, 0, kOtherKindInactive, 1, ok_sub, kRW, 0,
       ErrorCode::kCapabilityRevoked},
      {"inactive + destination sealed", every, 0, kInactive, 3, ok_sub, kRW, 0,
       ErrorCode::kCapabilityRevoked},
      {"wrong kind + no share right", shares, 0, kOtherKindNoShare, 1, ok_sub, kRW, 0,
       ErrorCode::kInvalidArgument},
      {"wrong kind + perms exceed", memory, 0, kOtherKind, 1, ok_sub, Perms::kRWX, 0,
       ErrorCode::kInvalidArgument},
      {"no share right + sub-range outside", {kShareMemory}, 0, kNoShare, 1,
       {kMiB, kPage}, kRW, 0, ErrorCode::kCapabilityRightsViolation},
      {"no grant right + rights exceed", {kGrantUnit}, 0, kNoGrant, 1, ok_sub, kRW,
       kAllRights, ErrorCode::kCapabilityRightsViolation},
      {"sub-range outside + unaligned", memory, 0, kAll, 1, {kMiB - kPage, kPage + 16}, kRW,
       0, ErrorCode::kOutOfRange},
      {"unaligned + perms exceed", memory, 0, kAll, 1, {16, kPage}, Perms::kRWX, 0,
       ErrorCode::kInvalidArgument},
      {"perms exceed + destination sealed", memory, 0, kAll, 3, ok_sub, Perms::kRWX, 0,
       ErrorCode::kCapabilityRightsViolation},
      {"rights exceed + destination sealed", every, 0, kNarrow, 3, ok_sub, kRW, kAllRights,
       ErrorCode::kCapabilityRightsViolation},
      {"destination sealed + sealed source", every, 4, kSealedOwner, 3, ok_sub, kRW, 0,
       ErrorCode::kDomainSealed},
  };
  const uint64_t caps_before = engine_.total_caps();
  for (const Row& row : rows) {
    for (const Entry entry : row.entries) {
      const CapId src = SourceFor(entry, row.source);
      const uint64_t base = (*engine_.Get(src))->range.base;
      const AddrRange sub{base + row.sub.base, row.sub.size};
      EXPECT_EQ(Send(entry, row.requester, src, row.dst, sub, row.perms, row.rights),
                row.want)
          << row.what << " via entry point " << entry;
    }
  }
  EXPECT_EQ(engine_.total_caps(), caps_before) << "a rejected transfer minted a capability";
  // An unknown source cap fails before every other rule.
  for (const Entry entry : every) {
    EXPECT_EQ(Send(entry, 1, 999, 3, ok_sub, Perms::kRWX, kAllRights), ErrorCode::kNotFound);
  }

  // The same requests with the defect removed succeed: each row failed on
  // its rule, not on the fixture. The sealed owner may still delegate to the
  // child it created.
  for (const Entry entry : every) {
    EXPECT_EQ(Send(entry, 0, SourceFor(entry, kAll), 1, ok_sub, kRW, 0), ErrorCode::kOk)
        << "entry point " << entry;
    EXPECT_EQ(Send(entry, 4, SourceFor(entry, kSealedOwner), 5,
                   {8 * kMiB + (entry == kShareMemory ? 0 : 4 * kPage), kPage}, kRW, 0),
              ErrorCode::kOk)
        << "sealed owner to its child via entry point " << entry;
  }
}

}  // namespace
}  // namespace tyche

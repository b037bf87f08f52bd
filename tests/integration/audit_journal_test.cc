// Copyright 2026 The Tyche Reproduction Authors.
// End-to-end audit journal: a circular-sharing workload with a cascading
// revocation is driven through the register ABI, the exported journal is
// verified offline (chain, checkpoint signatures, shadow replay against the
// capability-graph snapshot), and then randomized tampering -- byte flips,
// record drops, record swaps -- must be caught on every single trial.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/support/prng.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class AuditJournalTest : public BootedMachineTest {
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

  // Runs the workload: OS creates A and B, hands each a handle to the other,
  // then memory flows OS -> A -> B -> A (circular over one window) before the
  // OS revokes the root share and the whole loop cascades away.
  void RunCircularWorkload() {
    const ApiResult created_a = Call(0, ApiOp::kCreateDomain);
    const ApiResult created_b = Call(0, ApiOp::kCreateDomain);
    ASSERT_EQ(created_a.error, 0u);
    ASSERT_EQ(created_b.error, 0u);
    const DomainId domain_a = created_a.ret0;
    const DomainId domain_b = created_b.ret0;
    const CapId handle_a = created_a.ret1;
    const CapId handle_b = created_b.ret1;

    // A needs a handle to B (and vice versa) to name it as a destination.
    const ApiResult b_for_a =
        Call(0, ApiOp::kShareUnit, handle_b, handle_a, Pack(CapRights::kAll, 0));
    const ApiResult a_for_b =
        Call(0, ApiOp::kShareUnit, handle_a, handle_b, Pack(CapRights::kAll, 0));
    ASSERT_EQ(b_for_a.error, 0u);
    ASSERT_EQ(a_for_b.error, 0u);

    const AddrRange window = Scratch(kMiB, 16 * kPageSize);
    const ApiResult to_a =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), handle_a, window.base, window.size,
             Perms::kRW, Pack(CapRights::kAll, 0));
    ASSERT_EQ(to_a.error, 0u);

    // A forwards half of it to B; B hands a quarter back to A: a cycle in
    // the domain graph, still a tree in the lineage graph.
    machine_->cpu(1).set_current_domain(domain_a);
    const ApiResult to_b = Call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                                window.base, 8 * kPageSize, Perms::kRW,
                                Pack(CapRights::kAll, 0));
    ASSERT_EQ(to_b.error, 0u);
    machine_->cpu(2).set_current_domain(domain_b);
    const ApiResult back_to_a = Call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0,
                                     window.base, 4 * kPageSize, Perms::kRW,
                                     Pack(CapRights::kAll, 0));
    ASSERT_EQ(back_to_a.error, 0u);

    // Revoking the root share cascades through the whole loop.
    const ApiResult revoked = Call(0, ApiOp::kRevoke, to_a.ret0);
    ASSERT_EQ(revoked.error, 0u);
    root_share_ = to_a.ret0;
    loop_caps_ = {to_a.ret0, to_b.ret0, back_to_a.ret0};
  }

  CapId root_share_ = kInvalidCap;
  std::vector<CapId> loop_caps_;
};

TEST_F(AuditJournalTest, ReplayReproducesGraphAndSpansTieTheCascade) {
  RunCircularWorkload();

  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  EXPECT_TRUE(RemoteVerifier::VerifyJournal(wire, monitor_->public_key(), &graph_json).ok());

  // The cascade is causally tied to its root: the kRevoke record and one
  // kCascade record per deactivated capability share a single span id.
  const std::vector<JournalRecord> records = monitor_->audit().journal().Records();
  const JournalRecord* revoke = nullptr;
  for (const JournalRecord& record : records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kRevoke) &&
        record.cap == root_share_) {
      revoke = &record;
    }
  }
  ASSERT_NE(revoke, nullptr);
  EXPECT_EQ(revoke->aux, loop_caps_.size());  // three caps in the loop
  std::vector<CapId> cascaded;
  for (const JournalRecord& record : records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kCascade) &&
        record.span == revoke->span) {
      EXPECT_EQ(record.parent, root_share_);
      cascaded.push_back(record.cap);
    }
  }
  std::sort(cascaded.begin(), cascaded.end());
  std::vector<CapId> expected = loop_caps_;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cascaded, expected);

  // Direct replay agrees with the snapshot byte for byte and skipped only
  // the context records (dispatches and hardware effects).
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  const auto history =
      ReplayVerifiedJournal(*parsed, monitor_->public_key(), {}, /*crashed_tail=*/false);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history->replay.graph_json, graph_json);
  EXPECT_GT(history->replay.applied, 0u);
  EXPECT_GT(history->replay.skipped, 0u);
}

TEST_F(AuditJournalTest, EveryRandomizedTamperIsCaught) {
  RunCircularWorkload();
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  const SchnorrPublicKey key = monitor_->public_key();
  ASSERT_TRUE(RemoteVerifier::VerifyJournal(wire, key, nullptr).ok());
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->records.size(), 10u);

  // A tamper "counts as caught" if either deserialization or verification
  // rejects it; acceptance of any mutated journal is a test failure.
  const auto caught = [&](const std::vector<uint8_t>& bytes) {
    return !RemoteVerifier::VerifyJournal(bytes, key, nullptr).ok();
  };

  Prng prng(0x7a3c);
  int trials = 0;
  for (int i = 0; i < 40; ++i, ++trials) {  // single-bit flips anywhere
    std::vector<uint8_t> tampered = wire;
    const size_t at = prng.Below(tampered.size());
    tampered[at] ^= static_cast<uint8_t>(1u << prng.Below(8));
    EXPECT_TRUE(caught(tampered)) << "bit flip at byte " << at << " accepted";
  }
  for (int i = 0; i < 35; ++i, ++trials) {  // drop one record
    std::vector<JournalRecord> records = parsed->records;
    const size_t at = prng.Below(records.size());
    records.erase(records.begin() + at);
    EXPECT_TRUE(caught(Journal::SerializeParts(records, parsed->checkpoints)))
        << "dropping record " << at << " accepted";
  }
  for (int i = 0; i < 35; ++i, ++trials) {  // swap two records
    std::vector<JournalRecord> records = parsed->records;
    const size_t a = prng.Below(records.size());
    size_t b = prng.Below(records.size());
    while (b == a) {
      b = prng.Below(records.size());
    }
    std::swap(records[a], records[b]);
    EXPECT_TRUE(caught(Journal::SerializeParts(records, parsed->checkpoints)))
        << "swapping records " << a << " and " << b << " accepted";
  }
  EXPECT_GE(trials, 100);
}

// The four transfer records, emitted through Dispatch(), field by field.
// Replay reads only part of each (unit records' base/resource, for one, go
// unread), so this is what pins the rest of the wire layout.
TEST_F(AuditJournalTest, TransferRecordsPinEveryField) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const DomainId target = created.ret0;
  const CapId handle = created.ret1;

  const AddrRange shared = Scratch(kMiB, 4 * kPageSize);
  const AddrRange granted = Scratch(2 * kMiB, 2 * kPageSize);
  const CapId os_mem = OsMemCap(shared);
  ASSERT_EQ(OsMemCap(granted), os_mem);
  const CapId core1 = OsCoreCap(1);
  const CapId core2 = OsCoreCap(2);
  const uint8_t share_rights = CapRights::kShare | CapRights::kRevoke;
  const uint8_t grant_rights = CapRights::kAll;

  const ApiResult share_mem =
      Call(0, ApiOp::kShareMemory, os_mem, handle, shared.base, shared.size, Perms::kRead,
           Pack(share_rights, RevocationPolicy::kZeroMemory));
  // The grant carves the middle of the OS's cap: one remainder each side.
  const ApiResult grant_mem =
      Call(0, ApiOp::kGrantMemory, os_mem, handle, granted.base, granted.size, Perms::kRW,
           Pack(grant_rights, RevocationPolicy::kObfuscate));
  const ApiResult share_unit =
      Call(0, ApiOp::kShareUnit, core1, handle, Pack(share_rights, RevocationPolicy::kNone));
  const ApiResult grant_unit = Call(0, ApiOp::kGrantUnit, core2, handle,
                                    Pack(grant_rights, RevocationPolicy::kFlushCache));
  for (const ApiResult& result : {share_mem, grant_mem, share_unit, grant_unit}) {
    ASSERT_EQ(result.error, 0u);
  }

  const std::vector<JournalRecord> records = monitor_->audit().journal().Records();
  // The one record of `event` that created `cap`, whose span is the span of
  // the kDispatch record for `op`.
  const auto find = [&](JournalEvent event, CapId cap, ApiOp op) -> JournalRecord {
    const JournalRecord* found = nullptr;
    for (const JournalRecord& record : records) {
      if (record.event == static_cast<uint8_t>(event) && record.cap == cap) {
        EXPECT_EQ(found, nullptr) << "two records for cap " << cap;
        found = &record;
      }
    }
    if (found == nullptr) {
      ADD_FAILURE() << "no record for cap " << cap;
      return JournalRecord{};
    }
    bool dispatched = false;
    for (const JournalRecord& record : records) {
      dispatched |= record.event == static_cast<uint8_t>(JournalEvent::kDispatch) &&
                    record.span == found->span && record.op == static_cast<uint8_t>(op);
    }
    EXPECT_TRUE(dispatched) << "cap " << cap << " not in its dispatch span";
    return *found;
  };
  struct Want {
    JournalEvent event;
    ApiOp op;
    CapId cap;
    CapId parent;
    ResourceKind resource;
    uint8_t perms;
    uint8_t rights;
    uint8_t policy;
    uint64_t base;
    uint64_t size;
    uint64_t aux;
  };
  const Want wants[] = {
      {JournalEvent::kShareMemory, ApiOp::kShareMemory, share_mem.ret0, os_mem,
       ResourceKind::kMemory, Perms::kRead, share_rights, RevocationPolicy::kZeroMemory,
       shared.base, shared.size, 0},
      {JournalEvent::kGrantMemory, ApiOp::kGrantMemory, grant_mem.ret0, os_mem,
       ResourceKind::kMemory, Perms::kRW, grant_rights, RevocationPolicy::kObfuscate,
       granted.base, granted.size, /*aux = remainder count*/ 2},
      {JournalEvent::kShareUnit, ApiOp::kShareUnit, share_unit.ret0, core1,
       ResourceKind::kCpuCore, 0, share_rights, RevocationPolicy::kNone, /*base = unit*/ 1,
       0, 0},
      {JournalEvent::kGrantUnit, ApiOp::kGrantUnit, grant_unit.ret0, core2,
       ResourceKind::kCpuCore, 0, grant_rights, RevocationPolicy::kFlushCache, 2, 0, 0},
  };
  std::vector<uint64_t> spans;
  for (const Want& want : wants) {
    SCOPED_TRACE(static_cast<int>(want.event));
    const JournalRecord record = find(want.event, want.cap, want.op);
    spans.push_back(record.span);
    EXPECT_EQ(record.op, kJournalNoOp);
    EXPECT_EQ(record.domain, os_domain_);
    EXPECT_EQ(record.dst, target);
    EXPECT_EQ(record.resource, static_cast<uint8_t>(want.resource));
    EXPECT_EQ(record.perms, want.perms);
    EXPECT_EQ(record.rights, want.rights);
    EXPECT_EQ(record.policy, want.policy);
    EXPECT_EQ(record.cap, want.cap);
    EXPECT_EQ(record.parent, want.parent);
    EXPECT_EQ(record.base, want.base);
    EXPECT_EQ(record.size, want.size);
    EXPECT_EQ(record.result, 0u);
    EXPECT_EQ(record.aux, want.aux);
  }
  std::sort(spans.begin(), spans.end());
  EXPECT_EQ(std::unique(spans.begin(), spans.end()), spans.end()) << "spans shared";
}

TEST_F(AuditJournalTest, DisabledJournalStillDispatches) {
  monitor_->audit().set_enabled(false);
  const size_t before = monitor_->audit().journal().size();
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  EXPECT_EQ(created.error, 0u);
  EXPECT_EQ(monitor_->audit().journal().size(), before);
}

}  // namespace
}  // namespace tyche

// Copyright 2026 The Tyche Reproduction Authors.
// The register-level ABI: a full enclave lifecycle driven purely through
// Dispatch() with integer registers, plus a hostile-register fuzz pass.

#include "src/monitor/dispatch.h"

#include <gtest/gtest.h>

#include "src/support/prng.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class DispatchTest : public BootedMachineTest {
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
};

TEST_F(DispatchTest, FullLifecycleThroughRegisters) {
  // create
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u) << created.error;
  const uint64_t handle = created.ret1;

  // grant memory
  const AddrRange window = Scratch(kMiB, kMiB);
  const ApiResult grant =
      Call(0, ApiOp::kGrantMemory, OsMemCap(window), handle, window.base, window.size,
           Perms::kRWX, Pack(CapRights::kAll, RevocationPolicy::kZeroMemory));
  ASSERT_EQ(grant.error, 0u);

  // share core 1
  const ApiResult core_share = Call(0, ApiOp::kShareUnit, OsCoreCap(1), handle,
                                    Pack(CapRights::kShare, 0));
  ASSERT_EQ(core_share.error, 0u);

  // entry point + measurement + seal
  ASSERT_EQ(Call(0, ApiOp::kSetEntryPoint, handle, window.base).error, 0u);
  ASSERT_EQ(Call(0, ApiOp::kExtendMeasurement, handle, window.base, kPageSize).error, 0u);
  ASSERT_EQ(Call(0, ApiOp::kSeal, handle).error, 0u);

  // enumerate
  const ApiResult enumerated = Call(0, ApiOp::kEnumerate, handle);
  ASSERT_EQ(enumerated.error, 0u);
  EXPECT_GE(enumerated.ret0, 2u);  // memory + core

  // attest into a caller-owned out-buffer, then parse + verify the wire.
  const uint64_t out_buffer = Scratch(8 * kMiB, 0).base;
  const ApiResult attested =
      Call(0, ApiOp::kAttestDomain, handle, /*nonce=*/77, out_buffer, 4096);
  ASSERT_EQ(attested.error, 0u);
  std::vector<uint8_t> wire(attested.ret0);
  ASSERT_TRUE(machine_->CheckedRead(0, out_buffer, std::span<uint8_t>(wire)).ok());
  const auto report = DeserializeAttestation(wire);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  RemoteVerifier verifier(machine_->tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  EXPECT_TRUE(verifier.VerifyDomain(*report, monitor_->public_key(), 77, nullptr).ok());

  // transition + return
  ASSERT_EQ(Call(1, ApiOp::kTransition, handle).error, 0u);
  EXPECT_NE(monitor_->CurrentDomain(1), os_domain_);
  ASSERT_EQ(Call(1, ApiOp::kReturn).error, 0u);
  EXPECT_EQ(monitor_->CurrentDomain(1), os_domain_);

  // destroy
  ASSERT_EQ(Call(0, ApiOp::kDestroyDomain, handle).error, 0u);
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

TEST_F(DispatchTest, AttestOutBufferMustBeCallerWritable) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  // Out-buffer inside the MONITOR's memory: the checked write faults.
  const ApiResult attested = Call(0, ApiOp::kAttestDomain, created.ret1, 1, 0x1000, 4096);
  EXPECT_NE(attested.error, 0u);
  // Out-buffer too small: typed error, nothing written.
  const ApiResult small =
      Call(0, ApiOp::kAttestDomain, created.ret1, 1, Scratch(8 * kMiB, 0).base, 16);
  EXPECT_EQ(small.error, static_cast<uint64_t>(ErrorCode::kResourceExhausted));
}

// The whole-machine view an attestation report is built from is engine
// work: the profiler must charge it to kEngine, not leave the report's
// dominant cost in kOther (where a window records no engine phase at all).
TEST_F(DispatchTest, AttestationChargesTheEngineView) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const AddrRange window = Scratch(kMiB, 4 * kPageSize);
  ASSERT_EQ(Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1, window.base,
                 window.size, Perms::kRW, Pack(CapRights::kAll, 0))
                .error,
            0u);
  monitor_->profiler().set_enabled(true);
  const uint64_t out_buffer = Scratch(8 * kMiB, 0).base;
  for (uint64_t nonce = 1; nonce <= 4; ++nonce) {
    ASSERT_EQ(Call(0, ApiOp::kAttestDomain, created.ret1, nonce, out_buffer, 4096).error, 0u);
  }
  const auto op = static_cast<uint16_t>(ApiOp::kAttestDomain);
  EXPECT_EQ(monitor_->profiler().PhaseSnapshot(op, DispatchPhase::kEngine).count, 4u);
}

TEST_F(DispatchTest, BogusOpsRejected) {
  EXPECT_EQ(Call(0, static_cast<ApiOp>(250)).error,
            static_cast<uint64_t>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(Call(0, ApiOp::kOpCount).error,
            static_cast<uint64_t>(ErrorCode::kInvalidArgument));
}

TEST_F(DispatchTest, SerializationRoundTrip) {
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  const AddrRange window = Scratch(kMiB, kMiB);
  ASSERT_EQ(Call(0, ApiOp::kGrantMemory, OsMemCap(window), created.ret1, window.base,
                 window.size, Perms::kRWX, Pack(CapRights::kAll, 0))
                .error,
            0u);
  ASSERT_EQ(Call(0, ApiOp::kSetEntryPoint, created.ret1, window.base).error, 0u);
  ASSERT_EQ(Call(0, ApiOp::kSeal, created.ret1).error, 0u);
  const auto report = monitor_->AttestDomain(0, created.ret1, 9);
  ASSERT_TRUE(report.ok());
  const auto round = DeserializeAttestation(SerializeAttestation(*report));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->domain, report->domain);
  EXPECT_EQ(round->nonce, report->nonce);
  EXPECT_EQ(round->measurement, report->measurement);
  EXPECT_EQ(round->resources, report->resources);
  EXPECT_EQ(round->report_digest, report->report_digest);
  EXPECT_EQ(round->signature, report->signature);

  const auto identity = monitor_->Identity(4);
  ASSERT_TRUE(identity.ok());
  const auto identity_round =
      DeserializeMonitorIdentity(SerializeMonitorIdentity(*identity));
  ASSERT_TRUE(identity_round.ok());
  EXPECT_EQ(identity_round->monitor_key, identity->monitor_key);
  EXPECT_EQ(identity_round->boot_quote.pcr_values, identity->boot_quote.pcr_values);
  RemoteVerifier verifier(machine_->tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  EXPECT_TRUE(verifier.VerifyMonitor(*identity_round, 4).ok());
}

TEST_F(DispatchTest, DeserializationSurvivesGarbage) {
  Prng prng(99);
  // Truncations of a valid report.
  const auto created = Call(0, ApiOp::kCreateDomain);
  const auto report = monitor_->AttestDomain(0, created.ret1, 1);
  ASSERT_TRUE(report.ok());
  const std::vector<uint8_t> wire = SerializeAttestation(*report);
  for (size_t len = 0; len < wire.size(); len += 7) {
    const auto parsed =
        DeserializeAttestation(std::span<const uint8_t>(wire.data(), len));
    EXPECT_FALSE(parsed.ok()) << "accepted truncation at " << len;
  }
  // Random garbage.
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> garbage(prng.Below(256));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(prng.Next());
    }
    (void)DeserializeAttestation(garbage);  // must not crash
    (void)DeserializeMonitorIdentity(garbage);
  }
  // Bit flips in a valid report must be caught no later than verification.
  RemoteVerifier verifier(machine_->tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  for (int round = 0; round < 64; ++round) {
    std::vector<uint8_t> flipped = wire;
    flipped[prng.Below(flipped.size())] ^= static_cast<uint8_t>(1 + prng.Below(255));
    const auto parsed = DeserializeAttestation(flipped);
    if (!parsed.ok()) {
      continue;  // structurally rejected
    }
    EXPECT_FALSE(
        verifier.VerifyDomain(*parsed, monitor_->public_key(), report->nonce, nullptr)
            .ok())
        << "accepted a flipped report";
  }
}

TEST_F(DispatchTest, HostileRegisterFuzz) {
  Prng prng(31337);
  for (int round = 0; round < 3000; ++round) {
    ApiRegs regs;
    regs.op = prng.Below(24);  // includes invalid ops
    regs.arg0 = prng.Chance(1, 2) ? prng.Below(64) : prng.Next();
    regs.arg1 = prng.Chance(1, 2) ? prng.Below(64) : prng.Next();
    regs.arg2 = prng.Chance(1, 2) ? prng.Below(1ull << 27) : prng.Next();
    regs.arg3 = prng.Chance(1, 2) ? prng.Below(1ull << 20) : prng.Next();
    regs.arg4 = prng.Below(16);
    regs.arg5 = prng.Next();
    const CoreId core = static_cast<CoreId>(prng.Below(machine_->num_cores()));
    (void)Dispatch(monitor_.get(), core, regs);  // must never crash
    // Keep core state sane for the next round: unwind any transition the
    // fuzzer happened to perform.
    while (monitor_->CurrentDomain(core) != os_domain_ &&
           monitor_->ReturnFromDomain(core).ok()) {
    }
  }
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

}  // namespace
}  // namespace tyche

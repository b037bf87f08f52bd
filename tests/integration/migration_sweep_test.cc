// Copyright 2026 The Tyche Reproduction Authors.
// The migration sweep: live migration & failover of attested domains
// (DESIGN.md §11), fault-injected at every protocol stage.
//
// One clean migration runs per backend in fault-counting mode to discover
// how often each migration / channel site is reached. Every (site,
// occurrence) pair over {first, middle, last} is then injected into a fresh
// two-monitor world:
//
//   - migrate.* faults surface as typed errors and the migration rolls back
//     to the source: both monitors' engines hash identically to their
//     pre-migration state, the domain is alive and attestable on the
//     source, and nothing was adopted on the destination;
//   - channel.* faults are CONSUMED by the lossy wire (a dropped,
//     duplicated, or delayed frame) and the migration must still succeed
//     via the transfer stage's retry rounds, landing on engines that hash
//     identically to an unfaulted oracle migration.
//
// Either way the domain ends up whole on exactly one monitor. After a
// committed migration the destination's quote for the migrated domain
// verifies against the measurement attested on the SOURCE before the move
// (attestation continuity), and the two monitors' exported journals splice
// into one verifiable history (VerifyJournalSplice) — while tampered or
// mismatched journal pairs are rejected.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/monitor/attestation.h"
#include "src/monitor/migration.h"
#include "src/monitor/recovery.h"
#include "src/tyche/channel.h"
#include "src/tyche/loader.h"
#include "src/tyche/verifier.h"
#include "tests/testing/sweep.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kMemoryBytes = 64ull << 20;
constexpr uint32_t kNumCores = 4;
constexpr uint64_t kNonce = 0x5EED;

// A two-monitor world: the failover deployment. Both machines boot the SAME
// measured demo image, so both monitors derive the SAME attestation key —
// that key continuity is what keeps the migrated domain's quote verifiable.
struct World {
  std::unique_ptr<Machine> source_machine;
  std::unique_ptr<Machine> dest_machine;
  std::unique_ptr<Monitor> source;
  std::unique_ptr<Monitor> dest;
  DomainId source_os = kInvalidDomain;
  DomainId dest_os = kInvalidDomain;
  Digest golden_firmware;
  Digest golden_monitor;

  // The migrating service domain, set up by BuildVictim.
  DomainId victim = kInvalidDomain;
  CapId victim_handle = kInvalidCap;
  AddrRange window;
  Digest victim_measurement;
};

std::unique_ptr<Machine> MakeMachine(IsaArch arch) {
  MachineConfig config;
  config.arch = arch;
  config.memory_bytes = kMemoryBytes;
  config.num_cores = kNumCores;
  return std::make_unique<Machine>(config);
}

// The victim: a sealed service with 4 exclusively-granted pages of secret
// state (zero-on-revoke) and an exclusively-granted core. Grant — not
// share — everywhere: migration refuses resources it cannot move whole.
bool BuildVictim(World* world) {
  Monitor* monitor = world->source.get();
  const auto created = monitor->CreateDomain(0, "svc");
  if (!created.ok()) {
    return false;
  }
  world->victim = created->domain;
  world->victim_handle = created->handle;

  world->window = AddrRange{monitor->monitor_range().end() + kMiB, 4 * kPageSize};
  std::vector<uint8_t> secret(world->window.size);
  for (size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<uint8_t>(0xA5 ^ (i * 31));
  }
  if (!world->source_machine->memory().Write(world->window.base, secret).ok()) {
    return false;
  }

  const auto mem_cap = FindMemoryCap(*monitor, world->source_os, world->window);
  if (!mem_cap.ok()) {
    return false;
  }
  if (!monitor
           ->GrantMemory(0, *mem_cap, world->victim_handle, world->window,
                         Perms(Perms::kRWX), CapRights(CapRights::kAll),
                         RevocationPolicy(RevocationPolicy::kZeroMemory))
           .ok()) {
    return false;
  }
  const auto core_cap =
      FindUnitCap(*monitor, world->source_os, ResourceKind::kCpuCore, 3);
  if (!core_cap.ok() ||
      !monitor
           ->GrantUnit(0, *core_cap, world->victim_handle, CapRights(CapRights::kAll),
                       RevocationPolicy(0))
           .ok()) {
    return false;
  }
  if (!monitor->SetEntryPoint(0, world->victim_handle, world->window.base).ok() ||
      !monitor->ExtendMeasurement(0, world->victim_handle, world->window).ok() ||
      !monitor->Seal(0, world->victim_handle).ok()) {
    return false;
  }
  // The identity the customer verified BEFORE the failover.
  const auto report = monitor->AttestDomain(0, world->victim_handle, kNonce);
  if (!report.ok()) {
    return false;
  }
  world->victim_measurement = report->measurement;
  return true;
}

std::unique_ptr<World> MakeWorld(IsaArch arch) {
  auto world = std::make_unique<World>();
  world->source_machine = MakeMachine(arch);
  world->dest_machine = MakeMachine(arch);
  // BootParams holds spans; the images must outlive both boots.
  const std::vector<uint8_t> firmware = DemoFirmwareImage();
  const std::vector<uint8_t> monitor_image = DemoMonitorImage();
  BootParams params;
  params.firmware_image = firmware;
  params.monitor_image = monitor_image;
  auto source_boot = MeasuredBoot(world->source_machine.get(), params);
  auto dest_boot = MeasuredBoot(world->dest_machine.get(), params);
  if (!source_boot.ok() || !dest_boot.ok()) {
    return nullptr;
  }
  world->source = std::move(source_boot->monitor);
  world->source_os = source_boot->initial_domain;
  world->dest = std::move(dest_boot->monitor);
  world->dest_os = dest_boot->initial_domain;
  world->golden_firmware = source_boot->firmware_measurement;
  world->golden_monitor = source_boot->monitor_measurement;
  if (world->source->public_key().y != world->dest->public_key().y) {
    return nullptr;  // same measured image must derive the same key
  }
  if (!BuildVictim(world.get())) {
    return nullptr;
  }
  return world;
}

// What the fault trials compare against: digests and journals of one clean,
// unfaulted migration per backend.
struct Oracle {
  Digest source_engine;
  Digest dest_engine;
  DomainId dest_domain = kInvalidDomain;
  std::vector<uint8_t> source_journal;
  std::vector<uint8_t> dest_journal;
  SchnorrPublicKey key;
};

// The full post-migration verification: the domain is live on exactly the
// destination, its pages moved (and were scrubbed at the source by the
// zero-on-revoke policy), its quote still verifies against the
// pre-migration measurement, and the journals splice.
void ExpectMigrated(World* world, const MigrationReport& report) {
  Monitor* source = world->source.get();
  Monitor* dest = world->dest.get();
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(source->num_domains_alive(), 1u) << "victim still alive on the source";
  EXPECT_EQ(dest->num_domains_alive(), 2u) << "victim not adopted on the destination";

  // The secret pages moved whole; the source copies were zeroed.
  std::vector<uint8_t> dest_bytes(world->window.size);
  std::vector<uint8_t> source_bytes(world->window.size);
  ASSERT_TRUE(world->dest_machine->memory().Read(world->window.base, dest_bytes).ok());
  ASSERT_TRUE(world->source_machine->memory().Read(world->window.base, source_bytes).ok());
  bool pattern_ok = true;
  bool zeroed = true;
  for (size_t i = 0; i < dest_bytes.size(); ++i) {
    pattern_ok &= dest_bytes[i] == static_cast<uint8_t>(0xA5 ^ (i * 31));
    zeroed &= source_bytes[i] == 0;
  }
  EXPECT_TRUE(pattern_ok) << "migrated pages do not carry the source contents";
  EXPECT_TRUE(zeroed) << "zero-on-revoke did not scrub the source pages";

  // Attestation continuity: the DESTINATION quote verifies against the
  // measurement the customer pinned on the SOURCE before the failover.
  const auto handle =
      FindUnitCap(*dest, world->dest_os, ResourceKind::kDomain, report.dest_domain);
  ASSERT_TRUE(handle.ok()) << "destination OS holds no handle for the migrated domain";
  const auto quote = dest->AttestDomain(0, *handle, kNonce + 1);
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  RemoteVerifier verifier(world->dest_machine->tpm().attestation_key(),
                          world->golden_firmware, world->golden_monitor);
  const auto identity = dest->Identity(kNonce + 2);
  ASSERT_TRUE(identity.ok());
  ASSERT_TRUE(verifier.VerifyMonitor(*identity, kNonce + 2).ok());
  EXPECT_TRUE(verifier
                  .VerifyDomain(*quote, dest->public_key(), kNonce + 1,
                                &world->victim_measurement)
                  .ok())
      << "migrated domain's quote no longer matches the pre-migration identity";

  // Both hardware planes are still projections of their trees.
  const auto source_ok = source->AuditHardwareConsistency();
  const auto dest_ok = dest->AuditHardwareConsistency();
  ASSERT_TRUE(source_ok.ok() && dest_ok.ok());
  EXPECT_TRUE(*source_ok && *dest_ok);

  // The two journals splice into one verifiable history.
  const Status splice =
      VerifyJournalSplice(source->ExportJournal(), dest->ExportJournal(),
                          source->public_key(), dest->public_key());
  EXPECT_TRUE(splice.ok()) << splice.ToString();
}

Oracle CleanMigration(IsaArch arch) {
  Oracle oracle;
  auto world = MakeWorld(arch);
  EXPECT_NE(world, nullptr);
  if (world == nullptr) {
    return oracle;
  }
  LossyChannel channel;  // no plan armed: perfect delivery
  const auto report = MigrateDomain(world->source.get(), world->dest.get(),
                                    world->victim, &channel,
                                    world->source->public_key());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) {
    return oracle;
  }
  ExpectMigrated(world.get(), *report);
  oracle.source_engine = EngineDigest(world->source->engine());
  oracle.dest_engine = EngineDigest(world->dest->engine());
  oracle.dest_domain = report->dest_domain;
  oracle.source_journal = world->source->ExportJournal();
  oracle.dest_journal = world->dest->ExportJournal();
  oracle.key = world->source->public_key();
  return oracle;
}

// Counting run: how often each migration / channel site fires in one clean
// migration. Only the sites this sweep owns are kept — everything else
// (engine.*, vtx.*, pmp.*) already has its own sweep, and injecting those
// mid-commit would legitimately diverge from the unmigrated oracle.
sweep::SiteCounts CountOccurrences(IsaArch arch) {
  auto world = MakeWorld(arch);
  EXPECT_NE(world, nullptr);
  if (world == nullptr) {
    return {};
  }
  LossyChannel channel;
  Result<MigrationReport> report = Error(ErrorCode::kInternal, "not run");
  auto counts = sweep::CountSites(
      [&] {
        report = MigrateDomain(world->source.get(), world->dest.get(), world->victim,
                               &channel, world->source->public_key());
      },
      sweep::Prefixed({"migrate.", "channel."}));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return counts;
}

// One injected trial: fresh two-monitor world, one (site, occurrence)
// fault, one migration attempt, then the invariants.
void RunTrial(IsaArch arch, const FaultPlan& plan, const Oracle& oracle) {
  auto world = MakeWorld(arch);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source.get();
  Monitor* dest = world->dest.get();
  const Digest pre_source = EngineDigest(source->engine());
  const Digest pre_dest = EngineDigest(dest->engine());
  const std::string& site = plan.specs()[0].site;

  LossyChannel channel;
  Result<MigrationReport> report = Error(ErrorCode::kInternal, "not run");
  {
    ScopedFaultPlan scoped(plan);
    report = MigrateDomain(source, dest, world->victim, &channel, source->public_key());
  }
  sweep::ExpectFiredOnce(plan);

  if (site.starts_with("channel.")) {
    // A lossy wire is weather, not failure: the retry rounds absorb it and
    // the migration lands on exactly the oracle state.
    ASSERT_TRUE(report.ok()) << plan.ToString() << ": " << report.status().ToString();
    if (site == faults::kChannelDrop) {
      EXPECT_GE(report->retries, 1u) << "a dropped frame must cost a retry round";
    }
    ExpectMigrated(world.get(), *report);
    EXPECT_EQ(EngineDigest(source->engine()), oracle.source_engine)
        << "faulted migration's source engine diverged from the oracle";
    EXPECT_EQ(EngineDigest(dest->engine()), oracle.dest_engine)
        << "faulted migration's destination engine diverged from the oracle";
    return;
  }

  // migrate.* stage fault: typed error, full rollback to the source.
  ASSERT_FALSE(report.ok()) << plan.ToString() << " unexpectedly succeeded";
  EXPECT_EQ(report.status().code(), DefaultFaultCode(site))
      << report.status().ToString();
  EXPECT_FALSE(source->migration_in_progress()) << "domain left frozen";
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(EngineDigest(source->engine()), pre_source)
      << "rollback did not restore the source engine";
  EXPECT_EQ(EngineDigest(dest->engine()), pre_dest)
      << "rollback did not restore the destination engine";
  EXPECT_EQ(source->num_domains_alive(), 2u);
  EXPECT_EQ(dest->num_domains_alive(), 1u);

  // The domain is fully serviceable again: attestable, and still migratable
  // — the same world completes a clean migration after the rollback.
  const auto quote = source->AttestDomain(0, world->victim_handle, kNonce + 3);
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_EQ(quote->measurement, world->victim_measurement);
  LossyChannel retry_channel;
  const auto retried = MigrateDomain(source, dest, world->victim, &retry_channel,
                                     source->public_key());
  ASSERT_TRUE(retried.ok()) << "post-rollback migration failed: "
                            << retried.status().ToString();
  ExpectMigrated(world.get(), *retried);
}

void RunSweep(IsaArch arch) {
  const Oracle oracle = CleanMigration(arch);
  ASSERT_NE(oracle.dest_domain, kInvalidDomain);
  const auto counts = CountOccurrences(arch);
  // Coverage: one clean migration reaches every site this sweep owns.
  sweep::ExpectReached(counts, {faults::kMigrateFreeze, faults::kMigrateCapture,
                                faults::kMigrateTransfer, faults::kMigrateRestore,
                                faults::kMigrateResync, faults::kMigrateCommit,
                                faults::kChannelDrop, faults::kChannelDup,
                                faults::kChannelReorder});
  sweep::ForEachFirstMiddleLast("migration/grid", arch, counts,
                                [&](const FaultPlan& plan) { RunTrial(arch, plan, oracle); });
}

TEST(MigrationSweep, EveryStageEveryOccurrenceVtx) { RunSweep(IsaArch::kX86_64); }
TEST(MigrationSweep, EveryStageEveryOccurrencePmp) { RunSweep(IsaArch::kRiscV); }

// Randomized soak on top of the fixed grid: (site, occurrence) pairs
// sampled uniformly across the migration and channel sites.
TEST(MigrationSweep, RandomizedMigrationSoak) {
  const IsaArch arch = IsaArch::kX86_64;
  const Oracle oracle = CleanMigration(arch);
  ASSERT_NE(oracle.dest_domain, kInvalidDomain);
  sweep::Soak("migration/soak", arch, 0x5EEDCAFE, 25, CountOccurrences(arch),
              [&](const FaultPlan& plan) { RunTrial(arch, plan, oracle); });
}

// The journal splice rejects what it must: tampered bytes, cross-world
// journal pairs, and a destination that claims an adoption nobody handed
// off. (Exit-code mapping is covered by journal_verify's self-test.)
TEST(MigrationSweep, SpliceRejectsTamperAndMismatch) {
  const Oracle oracle = CleanMigration(IsaArch::kX86_64);
  ASSERT_NE(oracle.dest_domain, kInvalidDomain);
  ASSERT_TRUE(VerifyJournalSplice(oracle.source_journal, oracle.dest_journal, oracle.key,
                                  oracle.key)
                  .ok());

  // Any single flipped byte in either journal breaks the splice.
  for (const std::vector<uint8_t>* journal :
       {&oracle.source_journal, &oracle.dest_journal}) {
    std::vector<uint8_t> tampered = *journal;
    tampered[tampered.size() / 2] ^= 0x01;
    const Status verdict =
        journal == &oracle.source_journal
            ? VerifyJournalSplice(tampered, oracle.dest_journal, oracle.key, oracle.key)
            : VerifyJournalSplice(oracle.source_journal, tampered, oracle.key, oracle.key);
    EXPECT_FALSE(verdict.ok()) << "tampered journal spliced";
  }

  // A destination journal from a DIFFERENT world: its kMigrateIn does not
  // match this source's handoff (and vice versa the source kMigrateOut is
  // unmatched). Both directions must fail.
  const Oracle other = CleanMigration(IsaArch::kRiscV);
  ASSERT_NE(other.dest_domain, kInvalidDomain);
  EXPECT_FALSE(VerifyJournalSplice(oracle.source_journal, other.dest_journal, oracle.key,
                                   other.key)
                   .ok());

  // A pristine journal pair WITHOUT the migration: the source never handed
  // anything off, so a lone destination adoption must be rejected.
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  EXPECT_FALSE(VerifyJournalSplice(world->source->ExportJournal(), oracle.dest_journal,
                                   oracle.key, oracle.key)
                   .ok());
}

// The freeze window: a frozen domain rejects operations BY it and ON it
// with the typed kMigrating error, and an in-flight migration excludes
// concurrent dispatch — in both directions.
TEST(MigrationSweep, FreezeWindowRejectsAndExcludes) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source.get();

  FreezeDomainForTest(source, world->victim);
  EXPECT_TRUE(source->migration_in_progress());
  // ON it: operations targeting the frozen domain through its handle.
  EXPECT_EQ(source->AttestDomain(0, world->victim_handle, kNonce).status().code(),
            ErrorCode::kMigrating);
  EXPECT_EQ(source->Transition(3, world->victim_handle).code(), ErrorCode::kMigrating);
  // BY it: the frozen domain itself calling into the monitor.
  world->source_machine->cpu(3).set_current_domain(world->victim);
  EXPECT_EQ(source->CreateDomain(3, "child").status().code(), ErrorCode::kMigrating);
  world->source_machine->cpu(3).set_current_domain(world->source_os);
  // A migration in flight refuses concurrent dispatch...
  EXPECT_EQ(source->EnableConcurrentDispatch().code(), ErrorCode::kFailedPrecondition);

  UnfreezeDomainForTest(source, world->victim);
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_TRUE(source->AttestDomain(0, world->victim_handle, kNonce).ok());

  // ...and concurrent dispatch refuses migration (both monitors checked).
  ASSERT_TRUE(world->dest->EnableConcurrentDispatch().ok());
  LossyChannel channel;
  const auto refused = MigrateDomain(source, world->dest.get(), world->victim, &channel,
                                     source->public_key());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(source->migration_in_progress());
}

// Migration preconditions: what must be refused outright at freeze.
TEST(MigrationSweep, FreezeRefusesUnmovableDomains) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source.get();
  Monitor* dest = world->dest.get();
  LossyChannel channel;
  const auto migrate = [&](DomainId domain) {
    return MigrateDomain(source, dest, domain, &channel, source->public_key()).status();
  };

  // Self-migration and the initial domain.
  LossyChannel self_channel;
  EXPECT_EQ(MigrateDomain(source, source, world->victim, &self_channel,
                          source->public_key())
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(migrate(world->source_os).code(), ErrorCode::kFailedPrecondition);

  // An unsealed domain has no attested identity to preserve.
  const auto unsealed = source->CreateDomain(0, "unsealed");
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(migrate(unsealed->domain).code(), ErrorCode::kFailedPrecondition);

  // A domain with SHARED memory cannot move machines whole. (Sharing must
  // happen pre-seal: the sealing rules deny new transfers to a sealed
  // domain, so build a second sealed service around a shared page.)
  const AddrRange shared_window{world->window.end() + kMiB, kPageSize};
  const auto leaky = source->CreateDomain(0, "leaky");
  ASSERT_TRUE(leaky.ok());
  const auto shared_cap = FindMemoryCap(*source, world->source_os, shared_window);
  ASSERT_TRUE(shared_cap.ok());
  ASSERT_TRUE(source
                  ->ShareMemory(0, *shared_cap, leaky->handle, shared_window,
                                Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                RevocationPolicy(0))
                  .ok());
  ASSERT_TRUE(source->SetEntryPoint(0, leaky->handle, shared_window.base).ok());
  ASSERT_TRUE(source->ExtendMeasurement(0, leaky->handle, shared_window).ok());
  ASSERT_TRUE(source->Seal(0, leaky->handle).ok());
  EXPECT_EQ(migrate(leaky->domain).code(), ErrorCode::kFailedPrecondition);

  // A running domain cannot be frozen mid-flight.
  world->source_machine->cpu(3).set_current_domain(world->victim);
  EXPECT_EQ(migrate(world->victim).code(), ErrorCode::kFailedPrecondition);
  world->source_machine->cpu(3).set_current_domain(world->source_os);

  // Every refusal left both worlds untouched and unfrozen.
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(dest->num_domains_alive(), 1u);
}

// A destination that cannot host the domain (missing covering resources)
// triggers the staged-restore rollback, not a half-adoption.
TEST(MigrationSweep, DestinationWithoutResourcesRollsBack) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* dest = world->dest.get();

  // The destination OS grants away the core the victim needs, to a local
  // domain, so no covering unit capability is left to carve the grant from.
  const auto hog = dest->CreateDomain(0, "hog");
  ASSERT_TRUE(hog.ok());
  const auto core_cap = FindUnitCap(*dest, world->dest_os, ResourceKind::kCpuCore, 3);
  ASSERT_TRUE(core_cap.ok());
  ASSERT_TRUE(dest->GrantUnit(0, *core_cap, hog->handle, CapRights(CapRights::kAll),
                              RevocationPolicy(0))
                  .ok());
  const Digest pre_source = EngineDigest(world->source->engine());
  const Digest pre_dest = EngineDigest(dest->engine());

  LossyChannel channel;
  const auto report = MigrateDomain(world->source.get(), dest, world->victim, &channel,
                                    world->source->public_key());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(EngineDigest(world->source->engine()), pre_source);
  EXPECT_EQ(EngineDigest(dest->engine()), pre_dest);
  EXPECT_FALSE(world->source->migration_in_progress());

  // A payload signed by a key the destination does not trust is rejected at
  // the staged restore (signature binding), and also rolls back clean.
  LossyChannel channel2;
  const std::vector<uint8_t> wrong_seed = {0xBA, 0xDC, 0x0D, 0xE0};
  const SchnorrPublicKey wrong_key = DeriveKeyPair(wrong_seed).pub;
  const auto forged = MigrateDomain(world->source.get(), dest, world->victim, &channel2,
                                    wrong_key);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), ErrorCode::kSignatureInvalid);
  EXPECT_EQ(EngineDigest(world->source->engine()), pre_source);
  EXPECT_EQ(EngineDigest(dest->engine()), pre_dest);
}

// A domain whose capabilities were granted memory, core, memory: the
// destination journals the adoption grants in the order it minted them, so
// its journal replays to the same ids and the two histories still splice.
TEST(MigrationSweep, InterleavedGrantsJournalInMintOrder) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source.get();
  const auto created = source->CreateDomain(0, "mixed");
  ASSERT_TRUE(created.ok());
  const AddrRange first{source->monitor_range().end() + 2 * kMiB, kPageSize};
  const AddrRange second{source->monitor_range().end() + 3 * kMiB, kPageSize};
  const auto grant_memory = [&](AddrRange range) {
    const auto cap = FindMemoryCap(*source, world->source_os, range);
    return cap.ok() && source
                           ->GrantMemory(0, *cap, created->handle, range, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll), RevocationPolicy(0))
                           .ok();
  };
  ASSERT_TRUE(grant_memory(first));
  const auto core_cap = FindUnitCap(*source, world->source_os, ResourceKind::kCpuCore, 2);
  ASSERT_TRUE(core_cap.ok());
  ASSERT_TRUE(source
                  ->GrantUnit(0, *core_cap, created->handle, CapRights(CapRights::kAll),
                              RevocationPolicy(0))
                  .ok());
  ASSERT_TRUE(grant_memory(second));
  ASSERT_TRUE(source->SetEntryPoint(0, created->handle, first.base).ok());
  ASSERT_TRUE(source->Seal(0, created->handle).ok());

  LossyChannel channel;
  const auto report = MigrateDomain(source, world->dest.get(), created->domain, &channel,
                                    source->public_key());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<uint8_t> dest_journal = world->dest->ExportJournal();
  const Status replayed =
      RemoteVerifier::VerifyJournal(dest_journal, world->dest->public_key(), nullptr);
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  const Status splice = VerifyJournalSplice(source->ExportJournal(), dest_journal,
                                            source->public_key(), world->dest->public_key());
  EXPECT_TRUE(splice.ok()) << splice.ToString();
}

// A journal whose chain verifies but which does not replay fails both the
// offline verifier and the splice, on either side of the handoff: the
// splice replays each journal, it does not only check the two chains.
TEST(MigrationSweep, SpliceRejectsJournalThatFailsReplay) {
  for (const bool tamper_dest : {true, false}) {
    SCOPED_TRACE(tamper_dest ? "destination side" : "source side");
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    LossyChannel channel;
    const auto report = MigrateDomain(world->source.get(), world->dest.get(), world->victim,
                                      &channel, world->source->public_key());
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // The last memory grant (the adoption on the destination, the victim's
    // grant on the source) claims one more remainder than the engine
    // produces. The chain is re-linked from there and the monitor signs the
    // new head on export, so only the replay can tell.
    Monitor* tampered = tamper_dest ? world->dest.get() : world->source.get();
    std::vector<JournalRecord> records = tampered->audit().journal().Records();
    size_t grant = records.size();
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].event == static_cast<uint8_t>(JournalEvent::kGrantMemory)) {
        grant = i;
      }
    }
    ASSERT_LT(grant, records.size());
    ++records[grant].aux;
    for (size_t i = grant; i < records.size(); ++i) {
      records[i].link =
          ChainLink(i == 0 ? JournalGenesis() : records[i - 1].link, records[i]);
    }
    tampered->audit().journal().Restore(records, {});

    const std::vector<uint8_t> source_journal = world->source->ExportJournal();
    const std::vector<uint8_t> dest_journal = world->dest->ExportJournal();
    const Status verified = RemoteVerifier::VerifyJournal(
        tamper_dest ? dest_journal : source_journal, tampered->public_key(), nullptr);
    EXPECT_EQ(verified.code(), ErrorCode::kJournalReplayDivergence) << verified.ToString();
    const Status splice = VerifyJournalSplice(source_journal, dest_journal,
                                              world->source->public_key(),
                                              world->dest->public_key());
    EXPECT_EQ(splice.code(), ErrorCode::kJournalReplayDivergence) << splice.ToString();
  }
}

// Satellite regression: snapshots and concurrent dispatch exclude each
// other SYMMETRICALLY — whichever starts first wins, in both orders.
TEST(MigrationSweep, SnapshotConcurrencyExclusionBothOrders) {
  // Order 1: concurrent dispatch live, then EnableSnapshots must refuse.
  {
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    ASSERT_TRUE(world->source->EnableConcurrentDispatch().ok());
    SnapshotStore store;
    EXPECT_EQ(world->source->EnableSnapshots(&store).code(),
              ErrorCode::kFailedPrecondition);
  }
  // Order 2: snapshots bound, then EnableConcurrentDispatch must refuse.
  {
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    SnapshotStore store;
    ASSERT_TRUE(world->source->EnableSnapshots(&store).ok());
    EXPECT_EQ(world->source->EnableConcurrentDispatch().code(),
              ErrorCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace tyche

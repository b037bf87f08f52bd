// Copyright 2026 The Tyche Reproduction Authors.
// Crash-consistent monitor recovery (DESIGN.md §8).
//
// The durability story: every engine mutation is journaled AFTER it
// completes, so at any record boundary the live engine state equals the
// replay of the journal prefix up to that record. Signed checkpoints
// periodically bind a hash-committed snapshot of the full monitor state
// (capability lineage tree, refcounts, domain table, id allocators) into
// the chain. A monitor that dies at an arbitrary point is rebuilt by:
//
//   snapshot at checkpoint S  +  journal suffix (S, crash]  →  engine state
//   ResyncAll()                                             →  hardware state
//   measured re-boot of the same image                      →  same key, so
//                                                              the chain and
//                                                              attestation
//                                                              continue
//
// Durable:      the journal, snapshots, sealed-domain measurements + entry
//               points (carried by seal records), domain lifecycle.
// NOT durable:  execution state (core bindings, call stacks — every core
//               restarts in the initial domain), rolling measurement
//               contexts of unsealed domains, unsealed domains' entry
//               points and names set after the last snapshot.

#ifndef SRC_MONITOR_RECOVERY_H_
#define SRC_MONITOR_RECOVERY_H_

#include <span>
#include <vector>

#include "src/monitor/boot.h"
#include "src/support/snapshot.h"

namespace tyche {

// One durable snapshot: serialized bytes plus the journal seq it covers and
// the content digest (what the checkpoint signature binds).
struct MonitorSnapshot {
  uint64_t seq = 0;
  Digest digest;
  std::vector<uint8_t> bytes;
};

// In-memory stand-in for the durable medium snapshots live on (flash, a
// host file). The monitor writes through it at every signed checkpoint once
// EnableSnapshots() is called.
class SnapshotStore {
 public:
  void Put(MonitorSnapshot snapshot);

  // Newest snapshot covering seq <= `seq` (kNotFound if none).
  Result<MonitorSnapshot> LatestAtOrBefore(uint64_t seq) const;
  Result<MonitorSnapshot> Latest() const;
  size_t size() const { return snapshots_.size(); }

  // Drops snapshots older than `seq` (pairs with Journal::TruncateBefore).
  void PruneOlderThan(uint64_t seq);

 private:
  std::vector<MonitorSnapshot> snapshots_;  // ascending seq
};

// Deterministic digest of an engine's complete state. Two engines with the
// same lineage tree, domain table, and id allocator hash identically — the
// crash sweep's equivalence oracle.
Digest EngineDigest(const CapabilityEngine& engine);

// Everything a snapshot carries. The rolling measurement contexts of
// unsealed domains are deliberately absent: they are NOT durable (a sealed
// domain's final measurement rides in its seal record instead).
struct MonitorImage {
  EngineImage engine;
  std::vector<TrustDomain> domains;
  DomainId next_domain = 0;
  uint16_t next_asid = 1;
  uint64_t seal_nonce = 1;
  AddrRange monitor_range;
  Digest firmware_measurement;
  Digest monitor_measurement;
  AddrRange metadata_pool;
};

// A journal ReplayVerifiedJournal accepted, and what its replay rebuilt.
struct VerifiedHistory {
  // False only for a compacted journal verified without its snapshot: the
  // chain and signatures hold, but there is nothing to replay onto.
  bool replayed = false;
  CapabilityEngine engine;  // the anchor's engine with the suffix replayed
  MonitorImage image;       // the decoded snapshot (defaults at genesis)
  std::span<const JournalRecord> suffix;  // the records replayed
  JournalReplay replay;     // replay counts and the resulting graph JSON
};

// The one journal verifier. Offline verification (RemoteVerifier::
// VerifyJournal), crash recovery (Monitor::Recover), migration provenance
// and the journal splice all decide "this journal is sound" here, in order:
//   1. Journal::VerifyChain: anchored hash chain, every checkpoint
//      signature, and a tail covered by a signed checkpoint unless
//      `crashed_tail` (a crashed monitor cannot sign its own death);
//   2. the anchor: genesis when `snapshot` is empty, else the newest signed
//      checkpoint binding the snapshot's digest (kJournalSignatureInvalid
//      if none does), whose decoded MonitorImage is restored into a fresh
//      engine;
//   3. the suffix after the anchor (kJournalChainBroken if the journal does
//      not reach back to it);
//   4. ReplayJournalInto over the suffix (kJournalReplayDivergence).
// A compacted journal without its snapshot stops after step 1 with
// `replayed == false`. The returned suffix points into `journal`.
Result<VerifiedHistory> ReplayVerifiedJournal(const ParsedJournal& journal,
                                              const SchnorrPublicKey& key,
                                              std::span<const uint8_t> snapshot,
                                              bool crashed_tail);

// Crash-recovery boot: measured-boot steps 1–4 (measure firmware + monitor,
// derive the measurement-bound attestation key) followed by
// Monitor::Recover() instead of InstallInitialDomain(). Because the key is
// derived from the monitor measurement, the SAME image on the SAME machine
// regains the SAME key: old checkpoint signatures verify and new ones
// continue the chain. `snapshot_bytes` may be empty (fresh-boot recovery:
// the whole journal replays from genesis).
Result<BootOutcome> MeasuredRecovery(Machine* machine, const BootParams& params,
                                     std::span<const uint8_t> snapshot_bytes,
                                     const ParsedJournal& journal);

}  // namespace tyche

#endif  // SRC_MONITOR_RECOVERY_H_

// Copyright 2026 The Tyche Reproduction Authors.
// The monitor-side face of the audit journal (§3.4 extended to history):
// typed record builders for every capability mutation, human/JSON summaries,
// and the shadow-replay verifier. The journal itself (hash chain, signed
// checkpoints, wire format) lives in src/support/journal.h; this layer binds
// it to the monitor's vocabulary -- ApiOps, capability ids, revoke outcomes.
//
// Replay is the strongest check the journal affords: because the capability
// engine allocates ids deterministically (validation happens before any id
// is consumed), re-applying the journaled root operations to a fresh shadow
// engine must reproduce the exact lineage tree, including every cascade,
// remainder, and restore id. A journal that verifies AND replays to the
// attested graph snapshot is evidence of *how* the current sharing state
// came to be, not just what it is.

#ifndef SRC_MONITOR_AUDIT_H_
#define SRC_MONITOR_AUDIT_H_

#include <span>
#include <string>
#include <vector>

#include "src/capability/engine.h"
#include "src/support/journal.h"

namespace tyche {

// Owned by the Monitor; all builders are no-ops while the journal is
// disabled. Builders take the causal span id threaded from Dispatch().
class AuditJournal {
 public:
  AuditJournal() = default;

  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  bool enabled() const { return journal_.enabled(); }
  void set_enabled(bool enabled) { journal_.set_enabled(enabled); }

  // --- Record builders (one per monitor event) ---
  void Dispatch(uint64_t span, uint16_t op, uint32_t caller, uint64_t args_digest,
                uint64_t error);
  void RegisterDomain(uint64_t span, uint32_t domain, uint32_t creator);
  // The seal record carries the finalized measurement (packed into
  // cap/parent/base/size) and the entry point (aux) so recovery can rebuild
  // the domain's attested identity from the journal alone — the rolling
  // measurement context is not durable, but its final digest is.
  void SealDomain(uint64_t span, uint32_t domain, const Digest& measurement,
                  uint64_t entry_point);
  void MintMemory(uint64_t span, uint32_t owner, uint64_t cap, AddrRange range, Perms perms,
                  CapRights rights);
  void MintUnit(uint64_t span, uint32_t owner, uint64_t cap, ResourceKind kind, uint64_t unit,
                CapRights rights);
  // One committed share or grant, filled from the capability it created:
  // kShareMemory/kGrantMemory/kShareUnit/kGrantUnit by the cap's origin and
  // kind. Memory records carry the sub-range and perms, unit records the
  // unit in `base`; aux is the grant's remainder count.
  void Transfer(uint64_t span, uint32_t requester, const GrantOutcome& outcome,
                const CapabilityEngine& engine);
  // Emits kRevoke plus one kCascade per deactivated capability plus kRestore
  // when the revocation returned ownership: N+1 records, one span.
  void Revoke(uint64_t span, uint32_t requester, uint64_t cap, const RevokeOutcome& outcome,
              const CapabilityEngine& engine);
  void PurgeDomain(uint64_t span, uint32_t domain, const RevokeOutcome& outcome,
                   const CapabilityEngine& engine);
  void Effect(uint64_t span, const CapEffect& effect);
  // An operation failed mid-flight: its compensating mutations (if any) were
  // journaled as ordinary records, and this marks the whole span as aborted
  // with the operation's error code. Context-only for replay.
  void Abort(uint64_t span, uint16_t op, uint32_t requester, ErrorCode error);
  // The monitor recovered from a crash, having replayed up to `recovered_seq`.
  void Recovery(uint64_t span, uint64_t recovered_seq);
  // Migration handoff records. Both sides bind the payload digest (packed
  // into cap/parent/base/size like a seal measurement) so the two journals
  // can be spliced into one verifiable history: a kMigrateOut on the source
  // and a kMigrateIn that carry the SAME packed digest describe one handoff
  // (the domain ids differ across monitors). aux is the cross-journal
  // binding: kMigrateOut carries the first 8 bytes (little-endian) of the
  // source chain head at capture (the head the shipped provenance journal
  // ends at), kMigrateIn carries the first 8 bytes of the source
  // kMigrateOut record's own chain link — so a verifier holding both
  // journals can pin the destination's adoption to one specific record of
  // the source history. Context-only for replay.
  void MigrateOut(uint64_t span, uint32_t domain, const Digest& payload_digest,
                  uint64_t source_head_prefix);
  void MigrateIn(uint64_t span, uint32_t domain, const Digest& payload_digest,
                 uint64_t source_head_prefix);

  // --- Introspection / export ---
  // One-paragraph text: record/checkpoint counts, per-event tallies, head.
  std::string Summary() const;
  // Checkpoints the head, then serializes the whole journal for transport.
  std::vector<uint8_t> Export();

 private:
  // Builds (does not append) one kCascade record per revoked cap.
  void Cascades(std::vector<JournalRecord>* out, uint64_t span, uint64_t root_cap,
                const RevokeOutcome& outcome, const CapabilityEngine& engine);

  Journal journal_;
};

struct JournalReplay {
  uint64_t applied = 0;  // engine mutations re-applied
  uint64_t skipped = 0;  // context records (dispatch, effects)
  std::string graph_json;  // full-lineage export of the shadow engine
};

// Replays journaled engine mutations into `shadow` (which carries the state
// the records build on — fresh for a full-history replay, snapshot-restored
// for a suffix replay), asserting every journaled capability id (shares,
// grants, cascades, restores, remainder counts) matches what the engine
// produced. Fails with kJournalReplayDivergence and the diverging sequence
// number on any mismatch. A suffix that starts past genesis (seq > 0) may
// OPEN with cascade/restore confirmations of a revoke the snapshot already
// contains; they are skipped. `crashed_tail` tolerates a journal cut
// mid-span by a crash: a revoke's trailing cascade records may be missing
// (the mutation was journaled after it completed, so the state is already
// consistent). Callers verify the chain first (ReplayVerifiedJournal in
// recovery.h does both).
Result<JournalReplay> ReplayJournalInto(CapabilityEngine* shadow,
                                        std::span<const JournalRecord> records,
                                        bool crashed_tail = false);

// The measurement a kSealDomain record carries (packed across its
// cap/parent/base/size fields). Recovery uses it to rebuild attested
// identities from the journal alone.
Digest PackedSealDigest(const JournalRecord& record);

}  // namespace tyche

#endif  // SRC_MONITOR_AUDIT_H_

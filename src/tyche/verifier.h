// Copyright 2026 The Tyche Reproduction Authors.
// The customer-side verification workflow (§2.1 / Figure 2): before handing
// sensitive data to software running on an untrusted machine, the customer
//   1. verifies the machine runs the golden isolation monitor (tier 1),
//   2. verifies each participating domain: identity (golden measurement
//      computed offline from the image) and isolation configuration
//      (reference counts expose every sharing relationship),
//   3. only then provisions its secrets.

#ifndef SRC_TYCHE_VERIFIER_H_
#define SRC_TYCHE_VERIFIER_H_

#include <optional>

#include "src/monitor/attestation.h"
#include "src/tyche/loader.h"

namespace tyche {

// Policy the customer applies to a verified domain report.
struct SharingPolicy {
  // Every memory resource must have ref_count <= this.
  uint32_t max_memory_ref_count = 1;
  // Ranges that ARE expected to be shared (e.g. the channel to the GPU);
  // these may have ref_count up to `shared_ref_count`.
  std::vector<AddrRange> expected_shared;
  uint32_t shared_ref_count = 2;
};

// A multi-domain deployment policy (§4.2: "extend attestation to
// multi-domain deployments with the insurance that all communication paths
// are secured and attested"). The deployment is a set of verified domain
// reports plus the channels the customer EXPECTS between them; verification
// checks that the reports agree with each other:
//   - every declared channel appears in BOTH endpoints' reports, with a
//     reference count equal to the number of endpoints (no eavesdropper);
//   - no undeclared cross-domain sharing exists anywhere in the set;
//   - memory not on any channel is exclusive to its domain.
struct DeploymentChannel {
  AddrRange range;
  std::vector<uint32_t> endpoints;  // domain ids of the report set
  // Extra parties outside the report set allowed on this range (e.g. the
  // untrusted OS on a network buffer). Counted into the expected refcount.
  uint32_t external_parties = 0;
};

struct DeploymentPolicy {
  std::vector<DeploymentChannel> channels;
};

// Cross-checks a set of already-signature-verified reports against the
// deployment policy. Returns kPolicyViolation with a message naming the
// first inconsistency.
Status VerifyDeployment(std::span<const DomainAttestation> reports,
                        const DeploymentPolicy& policy);

class CustomerVerifier {
 public:
  CustomerVerifier(SchnorrPublicKey trusted_tpm_key, Digest golden_firmware,
                   Digest golden_monitor)
      : verifier_(trusted_tpm_key, golden_firmware, golden_monitor) {}

  // Tier 1. On success caches the monitor key for tier-2 checks.
  Status VerifyMonitor(const MonitorIdentity& identity, uint64_t nonce);

  // Tier 2 with code identity: recomputes the golden measurement offline
  // from the image + load parameters.
  Status VerifyDomainAgainstImage(const DomainAttestation& report, const TycheImage& image,
                                  uint64_t base, uint64_t size,
                                  const std::vector<CoreId>& cores, uint64_t nonce);

  // Checks the isolation configuration of a verified report against a
  // sharing policy.
  static Status CheckSharingPolicy(const DomainAttestation& report,
                                   const SharingPolicy& policy);

  bool monitor_verified() const { return monitor_key_.has_value(); }
  const SchnorrPublicKey& monitor_key() const { return *monitor_key_; }

 private:
  RemoteVerifier verifier_;
  std::optional<SchnorrPublicKey> monitor_key_;
};

// Offline check that two monitors' exported journals splice into ONE
// verifiable history across live migrations (DESIGN.md §11). After both
// chains verify under their monitors' keys, every handoff must pair up:
//   - each kMigrateIn in the destination journal matches exactly one source
//     kMigrateOut carrying the same packed payload digest, and its aux field
//     equals the first 8 bytes of that kMigrateOut record's chain link (the
//     destination adopted THIS point of the source history, not a replay of
//     an older one);
//   - the source journal shows the migrated domain purged AFTER the
//     handoff (the domain lives on exactly one monitor);
//   - no kMigrateOut is left unmatched (a domain that left one monitor
//     must have arrived somewhere in the pair).
// Violations return kJournalChainBroken (exit code 3 in journal_verify);
// bad signatures surface as kJournalSignatureInvalid from the per-journal
// chain verification.
// One-shot wire-to-verdict check for a serialized tier-2 report: hardened
// deserialization, then signature / digest / nonce / (optional) golden
// measurement verification under the already-verified monitor key. A report
// tampered in transit — truncated, bit-flipped, replayed under a stale
// nonce — fails here with a typed kAttestationMismatch / kSignatureInvalid
// and MUST NOT be cached or acted on. This is the fleet front end's tier-2
// entry point (src/fleet/frontend.cc).
Result<DomainAttestation> VerifySerializedReport(
    std::span<const uint8_t> bytes, const SchnorrPublicKey& monitor_key,
    uint64_t expected_nonce, const Digest* expected_measurement);

// One report inside a batched verification: the serialized bytes plus the
// per-request expectations VerifySerializedReport would receive.
struct BatchReportInput {
  std::span<const uint8_t> bytes;
  uint64_t expected_nonce = 0;
  const Digest* expected_measurement = nullptr;
};

struct BatchReportOutcome {
  Status status = OkStatus();
  std::optional<DomainAttestation> report;  // set iff status is ok
};

// Batched tier-2 verification: the Schnorr signatures of all structurally
// sound reports are checked with ONE SchnorrBatchVerify (a single
// randomized-combiner multi-exponentiation in the all-valid case), instead
// of two exponentiations per report. Per-report verdicts are exactly what
// VerifySerializedReport would return — a forged signature anywhere in the
// batch drops the crypto layer to per-signature fallback, which attributes
// the failure to the culprit index while the rest of the batch still
// verifies. Returns one outcome per input, in order.
std::vector<BatchReportOutcome> VerifySerializedReportBatch(
    std::span<const BatchReportInput> inputs, const SchnorrPublicKey& monitor_key);

// Offline custody check of a live migration: the source and destination
// journals splice into one verifiable history. Each side is deserialized
// once and verified and replayed from genesis by the one journal verifier
// (ReplayVerifiedJournal, src/monitor/recovery.h) under its own key — a
// side that is chain-valid but does not replay fails with
// kJournalReplayDivergence; a compacted side is chain-checked only, as
// RemoteVerifier::VerifyJournal does without a snapshot. Then every
// kMigrateIn adoption must pair with exactly one kMigrateOut handoff
// (payload digest and chain-link prefix) that the source later purged, and
// every handoff must be adopted; a mismatch fails with kJournalChainBroken.
Status VerifyJournalSplice(std::span<const uint8_t> source_journal,
                           std::span<const uint8_t> dest_journal,
                           const SchnorrPublicKey& source_key,
                           const SchnorrPublicKey& dest_key);

}  // namespace tyche

#endif  // SRC_TYCHE_VERIFIER_H_

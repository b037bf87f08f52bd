// Copyright 2026 The Tyche Reproduction Authors.
// Two-tier attestation (§3.4):
//   Tier 1 -- the TPM measures the boot chain (firmware, monitor image,
//   monitor attestation key) and signs quotes; a verifier compares against
//   golden values to conclude "the machine is under the complete control of
//   a specific monitor implementation".
//   Tier 2 -- the (now trusted) monitor signs per-domain attestations that
//   enumerate physical resources, their reference counts, and the
//   measurement of selected memory regions, which "makes sharing and
//   communication paths between domains explicit".

#ifndef SRC_MONITOR_ATTESTATION_H_
#define SRC_MONITOR_ATTESTATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/capability/types.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/hw/tpm.h"
#include "src/support/status.h"

namespace tyche {

// One resource entry in a domain attestation.
struct ResourceClaim {
  ResourceKind kind = ResourceKind::kMemory;
  AddrRange range;     // memory only
  uint64_t unit = 0;   // cores / devices / domain handles
  Perms perms;         // memory only
  uint32_t ref_count = 0;

  bool operator==(const ResourceClaim&) const = default;
};

// Tier-2 report: signed by the monitor.
struct DomainAttestation {
  uint32_t domain = 0;
  uint64_t nonce = 0;
  bool sealed = false;
  Digest measurement;  // rolling measurement finalized at seal time
  std::vector<ResourceClaim> resources;

  Digest report_digest;        // hash over all of the above
  SchnorrSignature signature;  // by the monitor attestation key

  // Canonical serialization hash (shared by signer and verifier).
  Digest ComputeDigest() const;
};

// Tier-1 identity: what a remote party needs to trust the monitor.
struct MonitorIdentity {
  SchnorrPublicKey tpm_key;      // TPM attestation key (trust anchor)
  SchnorrPublicKey monitor_key;  // monitor's report-signing key
  Digest firmware_measurement;   // H(firmware image)
  Digest monitor_measurement;    // H(monitor image)
  TpmQuote boot_quote;           // over PCR0 (firmware) and PCR1 (monitor+key)
};

// Wire format for reports (remote transport / the dispatch ABI's
// out-buffer). Deserialization is hardened against truncation and garbage:
// a report altered in transit fails digest/signature checks afterwards.
std::vector<uint8_t> SerializeAttestation(const DomainAttestation& report);
Result<DomainAttestation> DeserializeAttestation(std::span<const uint8_t> bytes);

std::vector<uint8_t> SerializeMonitorIdentity(const MonitorIdentity& identity);
Result<MonitorIdentity> DeserializeMonitorIdentity(std::span<const uint8_t> bytes);

// Recomputes the expected PCR values for a boot chain. PCR0 is extended
// with the firmware measurement; PCR1 with the monitor measurement, then
// with the hash of the monitor's public signing key (binding the key to the
// measured code).
Digest ExpectedPcr0(const Digest& firmware_measurement);
Digest ExpectedPcr1(const Digest& monitor_measurement, const SchnorrPublicKey& monitor_key);

// Hash of a public key (for PCR binding).
Digest HashPublicKey(const SchnorrPublicKey& key);

// The remote verifier (the paper's "customer"). Holds golden values and
// checks the full chain.
class RemoteVerifier {
 public:
  RemoteVerifier(SchnorrPublicKey trusted_tpm_key, Digest golden_firmware,
                 Digest golden_monitor)
      : tpm_key_(trusted_tpm_key),
        golden_firmware_(golden_firmware),
        golden_monitor_(golden_monitor) {}

  // Tier 1: checks the TPM quote covers PCR0+PCR1 with the expected values
  // for the golden measurements and the claimed monitor key, under the
  // trusted TPM key, with the expected nonce.
  Status VerifyMonitor(const MonitorIdentity& identity, uint64_t expected_nonce) const;

  // Tier 2: checks a domain report: signature by the (already verified)
  // monitor key, nonce freshness, digest consistency, and -- optionally --
  // an expected measurement (golden code identity).
  Status VerifyDomain(const DomainAttestation& report, const SchnorrPublicKey& monitor_key,
                      uint64_t expected_nonce, const Digest* expected_measurement) const;

  // History: verifies a serialized audit journal end-to-end through the one
  // journal verifier (ReplayVerifiedJournal, recovery.h) -- wire format,
  // hash chain, checkpoint signatures under the (verified) monitor key, a
  // covered tail -- then replays it through a shadow capability engine,
  // from genesis or, when `snapshot` is non-empty, from the signed
  // checkpoint that binds that snapshot. When `expected_graph_json` is
  // non-null, the replayed graph (including refcounts) must match that
  // graph_export snapshot byte-for-byte. Detects any single-record tamper,
  // drop, reorder, or tail truncation. A compacted journal without its
  // snapshot is chain-checked only, and refused (kFailedPrecondition) when
  // a graph is expected.
  static Status VerifyJournal(std::span<const uint8_t> journal_bytes,
                              const SchnorrPublicKey& monitor_key,
                              const std::string* expected_graph_json,
                              std::span<const uint8_t> snapshot = {});

  // Controlled-sharing policy checks over a verified report (§3.4: e.g.
  // "exclusive access to a resource (reference count of 1) coupled with an
  // obfuscating revocation policy guarantees integrity and
  // confidentiality").
  static bool AllResourcesExclusive(const DomainAttestation& report);
  // True if every memory resource has ref_count <= limit.
  static bool MaxRefCount(const DomainAttestation& report, uint32_t limit);

 private:
  SchnorrPublicKey tpm_key_;
  Digest golden_firmware_;
  Digest golden_monitor_;
};

}  // namespace tyche

#endif  // SRC_MONITOR_ATTESTATION_H_

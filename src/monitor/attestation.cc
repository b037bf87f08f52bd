// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/attestation.h"

#include "src/monitor/recovery.h"

namespace tyche {

namespace {

constexpr uint64_t kReportMagic = 0x5459434841545431ULL;    // "TYCHATT1"
constexpr uint64_t kIdentityMagic = 0x545943484d4f4e31ULL;  // "TYCHMON1"

void PutU64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void PutDigest(std::vector<uint8_t>* out, const Digest& digest) {
  out->insert(out->end(), digest.bytes.begin(), digest.bytes.end());
}

class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  Result<uint64_t> U64() {
    if (pos_ + 8 > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated wire data");
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  Result<Digest> ReadDigest() {
    if (pos_ + 32 > bytes_.size()) {
      return Error(ErrorCode::kOutOfRange, "truncated digest");
    }
    Digest digest;
    std::copy(bytes_.begin() + static_cast<long>(pos_),
              bytes_.begin() + static_cast<long>(pos_) + 32, digest.bytes.begin());
    pos_ += 32;
    return digest;
  }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<uint8_t> SerializeAttestation(const DomainAttestation& report) {
  std::vector<uint8_t> out;
  PutU64(&out, kReportMagic);
  PutU64(&out, report.domain);
  PutU64(&out, report.nonce);
  PutU64(&out, report.sealed ? 1 : 0);
  PutDigest(&out, report.measurement);
  PutU64(&out, report.resources.size());
  for (const ResourceClaim& claim : report.resources) {
    PutU64(&out, static_cast<uint64_t>(claim.kind));
    PutU64(&out, claim.range.base);
    PutU64(&out, claim.range.size);
    PutU64(&out, claim.unit);
    PutU64(&out, claim.perms.mask);
    PutU64(&out, claim.ref_count);
  }
  PutDigest(&out, report.report_digest);
  PutU64(&out, report.signature.s);
  PutDigest(&out, report.signature.e);
  PutU64(&out, report.signature.r);
  return out;
}

Result<DomainAttestation> DeserializeAttestation(std::span<const uint8_t> bytes) {
  WireReader reader(bytes);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t magic, reader.U64());
  if (magic != kReportMagic) {
    return Error(ErrorCode::kInvalidArgument, "not an attestation report");
  }
  DomainAttestation report;
  TYCHE_ASSIGN_OR_RETURN(const uint64_t domain, reader.U64());
  report.domain = static_cast<uint32_t>(domain);
  TYCHE_ASSIGN_OR_RETURN(report.nonce, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t sealed, reader.U64());
  report.sealed = sealed != 0;
  TYCHE_ASSIGN_OR_RETURN(report.measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > 1u << 20) {
    return Error(ErrorCode::kInvalidArgument, "implausible resource count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    ResourceClaim claim;
    TYCHE_ASSIGN_OR_RETURN(const uint64_t kind, reader.U64());
    if (kind > static_cast<uint64_t>(ResourceKind::kDomain)) {
      return Error(ErrorCode::kInvalidArgument, "bad resource kind");
    }
    claim.kind = static_cast<ResourceKind>(kind);
    TYCHE_ASSIGN_OR_RETURN(claim.range.base, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(claim.range.size, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(claim.unit, reader.U64());
    TYCHE_ASSIGN_OR_RETURN(const uint64_t perms, reader.U64());
    claim.perms = Perms(static_cast<uint8_t>(perms));
    TYCHE_ASSIGN_OR_RETURN(const uint64_t ref_count, reader.U64());
    claim.ref_count = static_cast<uint32_t>(ref_count);
    report.resources.push_back(claim);
  }
  TYCHE_ASSIGN_OR_RETURN(report.report_digest, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(report.signature.s, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(report.signature.e, reader.ReadDigest());
  // Commitment for batch verification, appended to the report wire format.
  TYCHE_ASSIGN_OR_RETURN(report.signature.r, reader.U64());
  return report;
}

std::vector<uint8_t> SerializeMonitorIdentity(const MonitorIdentity& identity) {
  std::vector<uint8_t> out;
  PutU64(&out, kIdentityMagic);
  PutU64(&out, identity.tpm_key.y);
  PutU64(&out, identity.monitor_key.y);
  PutDigest(&out, identity.firmware_measurement);
  PutDigest(&out, identity.monitor_measurement);
  PutU64(&out, identity.boot_quote.nonce);
  PutU64(&out, identity.boot_quote.pcr_mask);
  PutU64(&out, identity.boot_quote.pcr_values.size());
  for (const Digest& value : identity.boot_quote.pcr_values) {
    PutDigest(&out, value);
  }
  PutDigest(&out, identity.boot_quote.quote_digest);
  PutU64(&out, identity.boot_quote.signature.s);
  PutDigest(&out, identity.boot_quote.signature.e);
  return out;
}

Result<MonitorIdentity> DeserializeMonitorIdentity(std::span<const uint8_t> bytes) {
  WireReader reader(bytes);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t magic, reader.U64());
  if (magic != kIdentityMagic) {
    return Error(ErrorCode::kInvalidArgument, "not a monitor identity");
  }
  MonitorIdentity identity;
  TYCHE_ASSIGN_OR_RETURN(identity.tpm_key.y, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.monitor_key.y, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.firmware_measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.monitor_measurement, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.nonce, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(const uint64_t mask, reader.U64());
  identity.boot_quote.pcr_mask = static_cast<uint32_t>(mask);
  TYCHE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > Tpm::kNumPcrs) {
    return Error(ErrorCode::kInvalidArgument, "implausible PCR count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    TYCHE_ASSIGN_OR_RETURN(const Digest value, reader.ReadDigest());
    identity.boot_quote.pcr_values.push_back(value);
  }
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.quote_digest, reader.ReadDigest());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.signature.s, reader.U64());
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote.signature.e, reader.ReadDigest());
  return identity;
}

Digest DomainAttestation::ComputeDigest() const {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-domain-attestation-v1"));
  ctx.UpdateValue(domain);
  ctx.UpdateValue(nonce);
  ctx.UpdateValue(static_cast<uint8_t>(sealed ? 1 : 0));
  ctx.Update(std::span<const uint8_t>(measurement.bytes.data(), measurement.bytes.size()));
  ctx.UpdateValue(static_cast<uint64_t>(resources.size()));
  for (const ResourceClaim& claim : resources) {
    ctx.UpdateValue(static_cast<uint8_t>(claim.kind));
    ctx.UpdateValue(claim.range.base);
    ctx.UpdateValue(claim.range.size);
    ctx.UpdateValue(claim.unit);
    ctx.UpdateValue(claim.perms.mask);
    ctx.UpdateValue(claim.ref_count);
  }
  return ctx.Finalize();
}

Digest HashPublicKey(const SchnorrPublicKey& key) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-pubkey-v1"));
  ctx.UpdateValue(key.y);
  return ctx.Finalize();
}

namespace {

Digest ExtendDigest(const Digest& pcr, const Digest& value) {
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(pcr.bytes.data(), pcr.bytes.size()));
  ctx.Update(std::span<const uint8_t>(value.bytes.data(), value.bytes.size()));
  return ctx.Finalize();
}

}  // namespace

Digest ExpectedPcr0(const Digest& firmware_measurement) {
  return ExtendDigest(Digest{}, firmware_measurement);
}

Digest ExpectedPcr1(const Digest& monitor_measurement, const SchnorrPublicKey& monitor_key) {
  const Digest after_image = ExtendDigest(Digest{}, monitor_measurement);
  return ExtendDigest(after_image, HashPublicKey(monitor_key));
}

Status RemoteVerifier::VerifyMonitor(const MonitorIdentity& identity,
                                     uint64_t expected_nonce) const {
  if (!(identity.tpm_key == tpm_key_)) {
    return Error(ErrorCode::kAttestationMismatch, "untrusted TPM key");
  }
  if (identity.firmware_measurement != golden_firmware_) {
    return Error(ErrorCode::kAttestationMismatch, "firmware measurement mismatch");
  }
  if (identity.monitor_measurement != golden_monitor_) {
    return Error(ErrorCode::kAttestationMismatch, "monitor measurement mismatch");
  }
  const TpmQuote& quote = identity.boot_quote;
  if (quote.nonce != expected_nonce) {
    return Error(ErrorCode::kAttestationMismatch, "stale quote nonce");
  }
  const uint32_t expected_mask = (1u << Tpm::kPcrFirmware) | (1u << Tpm::kPcrMonitor);
  if (quote.pcr_mask != expected_mask || quote.pcr_values.size() != 2) {
    return Error(ErrorCode::kAttestationMismatch, "quote does not cover boot PCRs");
  }
  if (quote.pcr_values[0] != ExpectedPcr0(golden_firmware_)) {
    return Error(ErrorCode::kAttestationMismatch, "PCR0 does not match golden firmware");
  }
  if (quote.pcr_values[1] != ExpectedPcr1(golden_monitor_, identity.monitor_key)) {
    return Error(ErrorCode::kAttestationMismatch,
                 "PCR1 does not bind golden monitor to claimed key");
  }
  if (!Tpm::VerifyQuote(quote, tpm_key_)) {
    return Error(ErrorCode::kSignatureInvalid, "TPM quote signature invalid");
  }
  return OkStatus();
}

Status RemoteVerifier::VerifyDomain(const DomainAttestation& report,
                                    const SchnorrPublicKey& monitor_key,
                                    uint64_t expected_nonce,
                                    const Digest* expected_measurement) const {
  if (report.nonce != expected_nonce) {
    return Error(ErrorCode::kAttestationMismatch, "stale report nonce");
  }
  if (report.ComputeDigest() != report.report_digest) {
    return Error(ErrorCode::kAttestationMismatch, "report digest inconsistent");
  }
  if (!SchnorrVerify(monitor_key, report.report_digest, report.signature)) {
    return Error(ErrorCode::kSignatureInvalid, "report signature invalid");
  }
  if (!report.sealed) {
    return Error(ErrorCode::kAttestationMismatch, "domain not sealed");
  }
  if (expected_measurement != nullptr && report.measurement != *expected_measurement) {
    return Error(ErrorCode::kAttestationMismatch, "measurement does not match golden value");
  }
  return OkStatus();
}

Status RemoteVerifier::VerifyJournal(std::span<const uint8_t> journal_bytes,
                                     const SchnorrPublicKey& monitor_key,
                                     const std::string* expected_graph_json,
                                     std::span<const uint8_t> snapshot) {
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal parsed, Journal::Deserialize(journal_bytes));
  TYCHE_ASSIGN_OR_RETURN(const VerifiedHistory history,
                         ReplayVerifiedJournal(parsed, monitor_key, snapshot,
                                               /*crashed_tail=*/false));
  if (expected_graph_json == nullptr) {
    return OkStatus();
  }
  if (!history.replayed) {
    return Error(ErrorCode::kFailedPrecondition,
                 "journal: truncated journal needs its snapshot to replay "
                 "(use --snapshot)");
  }
  if (history.replay.graph_json != *expected_graph_json) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "journal: replayed capability graph does not match the snapshot");
  }
  return OkStatus();
}

bool RemoteVerifier::AllResourcesExclusive(const DomainAttestation& report) {
  for (const ResourceClaim& claim : report.resources) {
    if (claim.ref_count != 1) {
      return false;
    }
  }
  return true;
}

bool RemoteVerifier::MaxRefCount(const DomainAttestation& report, uint32_t limit) {
  for (const ResourceClaim& claim : report.resources) {
    if (claim.kind == ResourceKind::kMemory && claim.ref_count > limit) {
      return false;
    }
  }
  return true;
}

}  // namespace tyche

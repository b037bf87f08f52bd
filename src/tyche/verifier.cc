// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/verifier.h"

#include "src/monitor/recovery.h"

namespace tyche {

namespace {

// Finds the channel covering `range`, if any.
const DeploymentChannel* ChannelFor(const DeploymentPolicy& policy, const AddrRange& range) {
  for (const DeploymentChannel& channel : policy.channels) {
    if (channel.range.Contains(range)) {
      return &channel;
    }
  }
  return nullptr;
}

bool ChannelNamesDomain(const DeploymentChannel& channel, uint32_t domain) {
  for (const uint32_t endpoint : channel.endpoints) {
    if (endpoint == domain) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status VerifyDeployment(std::span<const DomainAttestation> reports,
                        const DeploymentPolicy& policy) {
  // Pass 1: every memory claim must be either exclusive or a declared
  // channel with exactly the expected reference count.
  for (const DomainAttestation& report : reports) {
    for (const ResourceClaim& claim : report.resources) {
      if (claim.kind != ResourceKind::kMemory) {
        continue;
      }
      const DeploymentChannel* channel = ChannelFor(policy, claim.range);
      if (channel == nullptr) {
        if (claim.ref_count != 1) {
          return Error(ErrorCode::kPolicyViolation,
                       "undeclared sharing on a non-channel region of domain " +
                           std::to_string(report.domain));
        }
        continue;
      }
      if (!ChannelNamesDomain(*channel, report.domain)) {
        return Error(ErrorCode::kPolicyViolation,
                     "domain " + std::to_string(report.domain) +
                         " holds a channel it is not an endpoint of");
      }
      const uint32_t expected =
          static_cast<uint32_t>(channel->endpoints.size()) + channel->external_parties;
      if (claim.ref_count != expected) {
        return Error(ErrorCode::kPolicyViolation,
                     "channel refcount mismatch (eavesdropper?) on domain " +
                         std::to_string(report.domain));
      }
    }
  }
  // Pass 2: every declared channel must actually appear in each endpoint's
  // report (a missing claim means the path was never established).
  for (const DeploymentChannel& channel : policy.channels) {
    for (const uint32_t endpoint : channel.endpoints) {
      const DomainAttestation* report = nullptr;
      for (const DomainAttestation& candidate : reports) {
        if (candidate.domain == endpoint) {
          report = &candidate;
          break;
        }
      }
      if (report == nullptr) {
        return Error(ErrorCode::kPolicyViolation,
                     "no report for channel endpoint " + std::to_string(endpoint));
      }
      bool covered = false;
      for (const ResourceClaim& claim : report->resources) {
        if (claim.kind == ResourceKind::kMemory && channel.range.Contains(claim.range) &&
            claim.range.base == channel.range.base &&
            claim.range.size == channel.range.size) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return Error(ErrorCode::kPolicyViolation,
                     "endpoint " + std::to_string(endpoint) +
                         " does not hold the declared channel");
      }
    }
  }
  return OkStatus();
}

Status CustomerVerifier::VerifyMonitor(const MonitorIdentity& identity, uint64_t nonce) {
  TYCHE_RETURN_IF_ERROR(verifier_.VerifyMonitor(identity, nonce));
  monitor_key_ = identity.monitor_key;
  return OkStatus();
}

Status CustomerVerifier::VerifyDomainAgainstImage(const DomainAttestation& report,
                                                  const TycheImage& image, uint64_t base,
                                                  uint64_t size,
                                                  const std::vector<CoreId>& cores,
                                                  uint64_t nonce) {
  if (!monitor_verified()) {
    return Error(ErrorCode::kFailedPrecondition, "verify the monitor first (tier 1)");
  }
  TYCHE_ASSIGN_OR_RETURN(const Digest golden,
                         ComputeExpectedMeasurement(image, base, size, cores));
  return verifier_.VerifyDomain(report, *monitor_key_, nonce, &golden);
}

Status CustomerVerifier::CheckSharingPolicy(const DomainAttestation& report,
                                            const SharingPolicy& policy) {
  for (const ResourceClaim& claim : report.resources) {
    if (claim.kind != ResourceKind::kMemory) {
      continue;
    }
    bool expected_shared = false;
    for (const AddrRange& range : policy.expected_shared) {
      if (range.Contains(claim.range)) {
        expected_shared = true;
        break;
      }
    }
    const uint32_t limit =
        expected_shared ? policy.shared_ref_count : policy.max_memory_ref_count;
    if (claim.ref_count > limit) {
      return Error(ErrorCode::kPolicyViolation,
                   "memory region shared more widely than the policy allows");
    }
  }
  return OkStatus();
}

Result<DomainAttestation> VerifySerializedReport(
    std::span<const uint8_t> bytes, const SchnorrPublicKey& monitor_key,
    uint64_t expected_nonce, const Digest* expected_measurement) {
  auto report = DeserializeAttestation(bytes);
  if (!report.ok()) {
    // Parse failure on attestation bytes is an integrity event, not a
    // format quibble: surface it as the typed mismatch the caller's retry
    // and breaker logic key on.
    return Error(ErrorCode::kAttestationMismatch,
                 "attestation failed to deserialize: " + report.status().message());
  }
  // VerifyDomain only consults its parameters; the verifier's golden/TPM
  // state is tier-1 material and unused here.
  const RemoteVerifier verifier(SchnorrPublicKey{}, Digest{}, Digest{});
  TYCHE_RETURN_IF_ERROR(verifier.VerifyDomain(*report, monitor_key,
                                              expected_nonce, expected_measurement));
  return *report;
}

std::vector<BatchReportOutcome> VerifySerializedReportBatch(
    std::span<const BatchReportInput> inputs, const SchnorrPublicKey& monitor_key) {
  std::vector<BatchReportOutcome> outcomes(inputs.size());

  // Phase 1: per-report structural checks in the same order as
  // VerifySerializedReport (parse, nonce, digest) so per-item statuses are
  // identical to the unbatched path. Reports that survive contribute their
  // signature to the shared batch.
  std::vector<SchnorrBatchItem> items;
  std::vector<size_t> item_owner;  // batch index -> input index
  items.reserve(inputs.size());
  item_owner.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto report = DeserializeAttestation(inputs[i].bytes);
    if (!report.ok()) {
      outcomes[i].status =
          Error(ErrorCode::kAttestationMismatch,
                "attestation failed to deserialize: " + report.status().message());
      continue;
    }
    if (report->nonce != inputs[i].expected_nonce) {
      outcomes[i].status = Error(ErrorCode::kAttestationMismatch, "stale report nonce");
      continue;
    }
    if (report->ComputeDigest() != report->report_digest) {
      outcomes[i].status = Error(ErrorCode::kAttestationMismatch, "report digest inconsistent");
      continue;
    }
    items.push_back(SchnorrBatchItem{monitor_key, report->report_digest, report->signature});
    item_owner.push_back(i);
    outcomes[i].report = std::move(*report);
  }

  // Phase 2: one combined signature check for every structurally sound
  // report. The outcome's invalid list attributes any forgery to its index.
  const SchnorrBatchOutcome batch = SchnorrBatchVerify(items);
  std::vector<bool> sig_ok(items.size(), true);
  for (const size_t bad : batch.invalid) {
    sig_ok[bad] = false;
  }

  // Phase 3: post-signature checks (sealed, golden measurement), still in
  // single-verify order.
  for (size_t b = 0; b < items.size(); ++b) {
    const size_t i = item_owner[b];
    if (!sig_ok[b]) {
      outcomes[i].status = Error(ErrorCode::kSignatureInvalid, "report signature invalid");
      outcomes[i].report.reset();
      continue;
    }
    const DomainAttestation& report = *outcomes[i].report;
    if (!report.sealed) {
      outcomes[i].status = Error(ErrorCode::kAttestationMismatch, "domain not sealed");
      outcomes[i].report.reset();
      continue;
    }
    if (inputs[i].expected_measurement != nullptr &&
        report.measurement != *inputs[i].expected_measurement) {
      outcomes[i].status =
          Error(ErrorCode::kAttestationMismatch, "measurement does not match golden value");
      outcomes[i].report.reset();
    }
  }
  return outcomes;
}

Status VerifyJournalSplice(std::span<const uint8_t> source_journal,
                           std::span<const uint8_t> dest_journal,
                           const SchnorrPublicKey& source_key,
                           const SchnorrPublicKey& dest_key) {
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal source, Journal::Deserialize(source_journal));
  TYCHE_RETURN_IF_ERROR(
      ReplayVerifiedJournal(source, source_key, {}, /*crashed_tail=*/false).status());
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal dest, Journal::Deserialize(dest_journal));
  TYCHE_RETURN_IF_ERROR(
      ReplayVerifiedJournal(dest, dest_key, {}, /*crashed_tail=*/false).status());

  std::vector<const JournalRecord*> outs;
  for (const JournalRecord& record : source.records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kMigrateOut)) {
      outs.push_back(&record);
    }
  }
  std::vector<bool> matched(outs.size(), false);

  for (const JournalRecord& in : dest.records) {
    if (in.event != static_cast<uint8_t>(JournalEvent::kMigrateIn)) {
      continue;
    }
    const Digest in_digest = PackedSealDigest(in);
    bool found = false;
    for (size_t i = 0; i < outs.size(); ++i) {
      const JournalRecord& out = *outs[i];
      // The payload digest identifies the handoff (domain ids differ across
      // monitors); the aux link pins it to one specific source record.
      if (matched[i] || PackedSealDigest(out) != in_digest ||
          in.aux != DigestPrefix64(out.link)) {
        continue;
      }
      matched[i] = true;
      found = true;
      // The source must have torn the domain down AFTER handing it off:
      // otherwise it would be live on both monitors.
      bool purged = false;
      for (const JournalRecord& later : source.records) {
        if (later.seq > out.seq &&
            later.event == static_cast<uint8_t>(JournalEvent::kPurgeDomain) &&
            later.domain == out.domain) {
          purged = true;
          break;
        }
      }
      if (!purged) {
        return Error(ErrorCode::kJournalChainBroken,
                     "splice: migrated domain was never purged on the source");
      }
      break;
    }
    if (!found) {
      return Error(ErrorCode::kJournalChainBroken,
                   "splice: destination adoption has no matching source handoff");
    }
  }

  for (size_t i = 0; i < outs.size(); ++i) {
    if (!matched[i]) {
      return Error(ErrorCode::kJournalChainBroken,
                   "splice: source handoff has no matching destination adoption");
    }
  }
  return OkStatus();
}

}  // namespace tyche

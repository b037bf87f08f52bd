// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/migration.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "src/hw/cost_model.h"
#include "src/monitor/audit.h"
#include "src/monitor/recovery.h"
#include "src/support/backoff.h"
#include "src/support/faults.h"
#include "src/support/log.h"
#include "src/support/snapshot.h"

namespace tyche {
namespace {

// Payload container tags (outer) and state-image tags (inner). The state
// image is its own TYSN container so the payload digest -- what both handoff
// records bind -- covers exactly the state being adopted, independent of the
// journal and signature riding alongside.
constexpr uint32_t kPayloadState = 1;
constexpr uint32_t kPayloadJournal = 2;
constexpr uint32_t kPayloadMeta = 3;
constexpr uint32_t kStateDomain = 1;
constexpr uint32_t kStateCaps = 2;
constexpr uint32_t kStatePages = 3;

constexpr uint32_t kFrameMagic = 0x464D5954;  // "TYMF"

// One serialized capability of the migrating domain.
struct PayloadCap {
  ResourceKind kind = ResourceKind::kMemory;
  AddrRange range;
  uint64_t unit = 0;
  Perms perms;
  CapRights rights;
  RevocationPolicy policy;
};

struct PayloadImage {
  uint32_t source_domain = 0;
  std::string name;
  uint64_t entry_point = 0;
  bool entry_point_set = false;
  Digest measurement;
  bool scrub_on_exit = false;
  std::vector<PayloadCap> caps;
  std::vector<std::pair<uint64_t, std::string>> pages;  // base -> content
};

// The statement the source signs: its measured identity vouches that THIS
// state image describes THIS domain. Domain-bound so a payload cannot be
// replayed as a different domain's state.
Digest BindingDigest(const Digest& payload_digest, uint32_t domain) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-migration-v1"));
  ctx.Update(std::span<const uint8_t>(payload_digest.bytes));
  ctx.UpdateValue(domain);
  return ctx.Finalize();
}

// --- Frame codec (transfer stage) ---
// magic | seq | total | length | payload bytes | checksum64. The checksum is
// the SHA-256 prefix of the chunk, so a frame corrupted in flight is simply
// treated as lost and re-sent.

std::vector<uint8_t> EncodeFrame(std::span<const uint8_t> payload, uint64_t chunk,
                                 uint32_t seq, uint32_t total) {
  const uint64_t offset = static_cast<uint64_t>(seq) * chunk;
  const uint64_t length = std::min<uint64_t>(chunk, payload.size() - offset);
  const std::span<const uint8_t> body = payload.subspan(offset, length);
  SectionWriter w;
  w.Append<uint32_t>(kFrameMagic);
  w.Append<uint32_t>(seq);
  w.Append<uint32_t>(total);
  w.Append<uint32_t>(static_cast<uint32_t>(length));
  std::vector<uint8_t> frame = w.Take();
  frame.insert(frame.end(), body.begin(), body.end());
  SectionWriter tail;
  tail.Append<uint64_t>(DigestPrefix64(Sha256::Hash(body)));
  const std::vector<uint8_t> checksum = tail.Take();
  frame.insert(frame.end(), checksum.begin(), checksum.end());
  return frame;
}

struct DecodedFrame {
  uint32_t seq = 0;
  uint32_t total = 0;
  std::vector<uint8_t> bytes;
};

bool DecodeFrame(std::span<const uint8_t> frame, DecodedFrame* out) {
  SectionReader r(frame);
  uint32_t magic = 0;
  uint32_t length = 0;
  if (!r.Read(&magic) || magic != kFrameMagic || !r.Read(&out->seq) ||
      !r.Read(&out->total) || !r.Read(&length)) {
    return false;
  }
  if (r.remaining() != static_cast<size_t>(length) + sizeof(uint64_t)) {
    return false;
  }
  const std::span<const uint8_t> body = frame.subspan(frame.size() - length - 8, length);
  out->bytes.assign(body.begin(), body.end());
  uint64_t checksum = 0;
  SectionReader tail(frame.subspan(frame.size() - 8));
  return tail.Read(&checksum) && checksum == DigestPrefix64(Sha256::Hash(body));
}

}  // namespace

// Friend of Monitor: the staged-commit protocol needs the same private
// access Recover() has (engine swap, domain table, journal builders).
class MigrationInternal {
 public:
  // Everything the destination stages before anything live changes. The
  // journal records are NOT appended here -- they land at commit, after the
  // source's kMigrateOut, so an aborted migration leaves no trace of an
  // adoption that never happened.
  struct StagedAdoption {
    DomainId new_id = kInvalidDomain;
    CapabilityEngine engine;  // dest pre-state + adoption mutations
    TrustDomain adopted;
    Digest payload_digest;
    uint64_t source_head_prefix = 0;  // source chain head at capture
    CapId handle_cap = kInvalidCap;
    // Adoption grants in mint order: replay re-mints in journal order.
    std::vector<GrantOutcome> grants;
    std::vector<std::pair<uint64_t, std::string>> pages;
  };

  static Result<MigrationReport> Run(Monitor* source, Monitor* dest, DomainId domain,
                                     MigrationTransport* transport,
                                     const SchnorrPublicKey& source_key,
                                     const MigrationOptions& options);

  static void FreezeForTest(Monitor* monitor, DomainId domain) {
    monitor->frozen_.insert(domain);
  }
  static void UnfreezeForTest(Monitor* monitor, DomainId domain) {
    monitor->frozen_.erase(domain);
  }

 private:
  static Status Gate(std::string_view site) {
    TYCHE_FAULT_POINT(site);
    return OkStatus();
  }

  static Status Freeze(Monitor* source, Monitor* dest, DomainId domain);
  static Result<MigrationReport> RunFrozen(Monitor* source, Monitor* dest,
                                           DomainId domain, MigrationTransport* transport,
                                           const SchnorrPublicKey& source_key,
                                           const MigrationOptions& options);
  static void RollbackSource(Monitor* source, DomainId domain, const Status& cause);

  static Result<std::vector<uint8_t>> BuildPayload(Monitor* source, DomainId domain,
                                                   Digest* payload_digest,
                                                   uint64_t* head_prefix);
  static Result<std::vector<uint8_t>> Transfer(Monitor* source,
                                               MigrationTransport* transport,
                                               std::span<const uint8_t> payload,
                                               const MigrationOptions& options,
                                               MigrationReport* report);
  static Result<StagedAdoption> StageOnDest(Monitor* dest, std::span<const uint8_t> payload,
                                            const SchnorrPublicKey& source_key);
  static Result<PayloadImage> ParseStateImage(std::span<const uint8_t> bytes);
  static Status CrossCheckAgainstJournal(const PayloadImage& image,
                                         const VerifiedHistory& history);
  static void RollbackDest(Monitor* dest, const StagedAdoption& staged,
                           const EngineImage& pre_engine, DomainId pre_next_domain,
                           uint16_t pre_next_asid);
};

Status MigrationInternal::Freeze(Monitor* source, Monitor* dest, DomainId domain) {
  if (source == dest) {
    return Error(ErrorCode::kInvalidArgument, "source and destination are the same monitor");
  }
  if (source->concurrent_dispatch() || dest->concurrent_dispatch()) {
    // The protocol reads and mutates monitor state without the dispatch
    // locks; the mirror check lives in EnableConcurrentDispatch().
    return Error(ErrorCode::kFailedPrecondition,
                 "migration requires serial dispatch on both monitors");
  }
  if (source->migration_in_progress() || dest->migration_in_progress()) {
    return Error(ErrorCode::kFailedPrecondition, "another migration is in flight");
  }
  TYCHE_FAULT_POINT(faults::kMigrateFreeze);
  const auto it = source->domains_.find(domain);
  if (it == source->domains_.end() || !it->second.alive()) {
    return Error(ErrorCode::kDomainDead, "migration source domain not alive");
  }
  const TrustDomain& dom = it->second;
  if (dom.creator == kInvalidDomain) {
    return Error(ErrorCode::kFailedPrecondition, "the initial domain cannot migrate");
  }
  if (!dom.sealed()) {
    // The rolling measurement context is not serializable (and an unsealed
    // domain has no attested identity to preserve anyway).
    return Error(ErrorCode::kFailedPrecondition, "only sealed domains migrate");
  }
  for (CoreId core = 0; core < source->machine_->num_cores(); ++core) {
    if (source->machine_->cpu(core).current_domain() == domain) {
      return Error(ErrorCode::kFailedPrecondition, "domain is running");
    }
    const auto& stack = source->call_stacks_[core];
    if (std::find(stack.begin(), stack.end(), domain) != stack.end()) {
      return Error(ErrorCode::kFailedPrecondition, "domain is on a transition stack");
    }
  }
  for (const auto& [id, other] : source->domains_) {
    if (other.alive() && other.creator == domain) {
      return Error(ErrorCode::kFailedPrecondition, "domain has live children");
    }
  }
  // Exclusive ownership of every resource: migration moves state, and a
  // resource another domain can still see cannot move machines.
  for (const Capability* cap : source->engine_.DomainCaps(domain)) {
    switch (cap->kind) {
      case ResourceKind::kMemory:
        if (!source->engine_.ExclusivelyOwned(domain, cap->range)) {
          return Error(ErrorCode::kFailedPrecondition, "memory is shared, not exclusive");
        }
        break;
      case ResourceKind::kDomain:
        return Error(ErrorCode::kFailedPrecondition, "domain handles do not migrate");
      default:
        if (source->engine_.UnitRefCount(cap->kind, cap->unit) != 1) {
          return Error(ErrorCode::kFailedPrecondition, "unit resource is shared");
        }
        break;
    }
  }
  source->frozen_.insert(domain);
  return OkStatus();
}

void MigrationInternal::RollbackSource(Monitor* source, DomainId domain,
                                       const Status& cause) {
  source->frozen_.erase(domain);
  // Journal the abort so the history shows the freeze window; no handoff
  // record was appended, so replay sees nothing to compensate.
  const uint64_t span = source->next_span_.fetch_add(1, std::memory_order_relaxed);
  source->audit_.Abort(span, static_cast<uint16_t>(ApiOp::kOpCount), domain, cause.code());
  TYCHE_LOG(kWarn) << "migration of domain " << domain
                   << " rolled back to source: " << cause.ToString();
}

Result<std::vector<uint8_t>> MigrationInternal::BuildPayload(Monitor* source,
                                                             DomainId domain,
                                                             Digest* payload_digest,
                                                             uint64_t* head_prefix) {
  TYCHE_FAULT_POINT(faults::kMigrateCapture);
  const TrustDomain& dom = source->domains_.at(domain);

  SectionWriter dw;
  dw.Append<uint32_t>(domain);
  dw.AppendString(dom.name);
  dw.Append<uint64_t>(dom.entry_point);
  dw.Append<uint8_t>(dom.entry_point_set ? 1 : 0);
  dw.AppendDigest(dom.measurement);
  dw.Append<uint8_t>(dom.scrub_on_exit ? 1 : 0);

  const std::vector<const Capability*> caps = source->engine_.DomainCaps(domain);
  SectionWriter cw;
  cw.Append<uint32_t>(static_cast<uint32_t>(caps.size()));
  for (const Capability* cap : caps) {
    cw.Append<uint8_t>(static_cast<uint8_t>(cap->kind));
    cw.Append<uint64_t>(cap->range.base);
    cw.Append<uint64_t>(cap->range.size);
    cw.Append<uint64_t>(cap->unit);
    cw.Append<uint8_t>(cap->perms.mask);
    cw.Append<uint8_t>(cap->rights.mask);
    cw.Append<uint8_t>(cap->revocation.mask);
  }

  SectionWriter pw;
  uint32_t regions = 0;
  for (const Capability* cap : caps) {
    if (cap->kind == ResourceKind::kMemory) {
      ++regions;
    }
  }
  pw.Append<uint32_t>(regions);
  for (const Capability* cap : caps) {
    if (cap->kind != ResourceKind::kMemory) {
      continue;
    }
    std::string content(cap->range.size, '\0');
    TYCHE_RETURN_IF_ERROR(source->machine_->memory().Read(
        cap->range.base,
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(content.data()), content.size())));
    pw.Append<uint64_t>(cap->range.base);
    pw.AppendString(content);
  }

  SnapshotWriter state;
  state.AddSection(kStateDomain, dw.Take());
  state.AddSection(kStateCaps, cw.Take());
  state.AddSection(kStatePages, pw.Take());
  std::vector<uint8_t> state_bytes = state.Finish();
  *payload_digest = SnapshotDigest(state_bytes);

  // Checkpoint + export: the shipped provenance journal always has a signed
  // covered tail, so the destination verifies it under the strict rule.
  std::vector<uint8_t> journal_bytes = source->audit_.Export();
  *head_prefix = DigestPrefix64(source->audit_.journal().head());

  const SchnorrSignature sig =
      SchnorrSign(source->key_.priv, BindingDigest(*payload_digest, domain));
  SectionWriter mw;
  mw.Append<uint32_t>(domain);
  mw.Append<uint64_t>(*head_prefix);
  mw.Append<uint64_t>(sig.s);
  mw.AppendDigest(sig.e);

  SnapshotWriter payload;
  payload.AddSection(kPayloadState, std::move(state_bytes));
  payload.AddSection(kPayloadJournal, std::move(journal_bytes));
  payload.AddSection(kPayloadMeta, mw.Take());
  return payload.Finish();
}

Result<std::vector<uint8_t>> MigrationInternal::Transfer(Monitor* source,
                                                         MigrationTransport* transport,
                                                         std::span<const uint8_t> payload,
                                                         const MigrationOptions& options,
                                                         MigrationReport* report) {
  const uint64_t chunk = std::max<uint64_t>(1, options.chunk_size);
  const uint32_t total = static_cast<uint32_t>((payload.size() + chunk - 1) / chunk);
  std::map<uint32_t, std::vector<uint8_t>> received;
  // Jittered exponential backoff between retry rounds. The seed defaults to
  // a per-migration value (payload digest prefix) so two migrations that
  // failed against the same congested channel at the same instant do NOT
  // re-send in lockstep every round — the bug class this replaces was a
  // deterministic `vmcall_round_trip << round` charge identical across all
  // migrations.
  Prng backoff_prng(options.backoff_seed != 0
                        ? options.backoff_seed
                        : DigestPrefix64(report->payload_digest) ^ 0x6261636b6f6666ULL);
  const BackoffPolicy backoff{/*base=*/CostModel::Default().vmcall_round_trip,
                              /*cap=*/CostModel::Default().vmcall_round_trip
                                  << 10};
  for (uint32_t round = 0; received.size() < total; ++round) {
    if (round >= options.max_attempts) {
      return Error(ErrorCode::kResourceExhausted, "migration transfer retries exhausted");
    }
    if (round > 0) {
      ++report->retries;
      const uint64_t wait = JitteredBackoff(backoff_prng, backoff, round);
      report->backoff_cycles += wait;
      source->machine_->cycles().Charge(wait);
    }
    TYCHE_FAULT_POINT(faults::kMigrateTransfer);
    for (uint32_t seq = 0; seq < total; ++seq) {
      if (received.contains(seq)) {
        continue;
      }
      TYCHE_RETURN_IF_ERROR(transport->Send(EncodeFrame(payload, chunk, seq, total)));
      ++report->frames_sent;
    }
    while (true) {
      auto frame = transport->Recv();
      if (!frame.ok()) {
        if (frame.status().code() == ErrorCode::kNotFound) {
          break;  // channel drained; missing frames go to the next round
        }
        return frame.status();
      }
      DecodedFrame decoded;
      if (!DecodeFrame(*frame, &decoded) || decoded.total != total ||
          decoded.seq >= total) {
        continue;  // corrupt or alien frame: treated as lost
      }
      received.emplace(decoded.seq, std::move(decoded.bytes));  // dedupes
    }
  }
  std::vector<uint8_t> out;
  out.reserve(payload.size());
  for (uint32_t seq = 0; seq < total; ++seq) {
    const std::vector<uint8_t>& piece = received.at(seq);
    out.insert(out.end(), piece.begin(), piece.end());
  }
  report->payload_bytes = out.size();
  return out;
}

Result<PayloadImage> MigrationInternal::ParseStateImage(std::span<const uint8_t> bytes) {
  TYCHE_ASSIGN_OR_RETURN(const SnapshotView view, SnapshotView::Parse(bytes));
  PayloadImage image;

  TYCHE_ASSIGN_OR_RETURN(const auto domain_bytes, view.Section(kStateDomain));
  SectionReader dr(domain_bytes);
  uint8_t entry_set = 0;
  uint8_t scrub = 0;
  if (!dr.Read(&image.source_domain) || !dr.ReadString(&image.name) ||
      !dr.Read(&image.entry_point) || !dr.Read(&entry_set) ||
      !dr.ReadDigest(&image.measurement) || !dr.Read(&scrub) || dr.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad domain section");
  }
  image.entry_point_set = entry_set != 0;
  image.scrub_on_exit = scrub != 0;

  TYCHE_ASSIGN_OR_RETURN(const auto caps_bytes, view.Section(kStateCaps));
  SectionReader cr(caps_bytes);
  uint32_t cap_count = 0;
  if (!cr.Read(&cap_count)) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad caps section");
  }
  for (uint32_t i = 0; i < cap_count; ++i) {
    PayloadCap cap;
    uint8_t kind = 0;
    uint8_t perms = 0;
    uint8_t rights = 0;
    uint8_t policy = 0;
    if (!cr.Read(&kind) || !cr.Read(&cap.range.base) || !cr.Read(&cap.range.size) ||
        !cr.Read(&cap.unit) || !cr.Read(&perms) || !cr.Read(&rights) ||
        !cr.Read(&policy)) {
      return Error(ErrorCode::kInvalidArgument, "migration payload: truncated cap");
    }
    cap.kind = static_cast<ResourceKind>(kind);
    cap.perms = Perms(perms);
    cap.rights = CapRights(rights);
    cap.policy = RevocationPolicy(policy);
    image.caps.push_back(cap);
  }

  TYCHE_ASSIGN_OR_RETURN(const auto pages_bytes, view.Section(kStatePages));
  SectionReader pr(pages_bytes);
  uint32_t region_count = 0;
  if (!pr.Read(&region_count)) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad pages section");
  }
  for (uint32_t i = 0; i < region_count; ++i) {
    uint64_t base = 0;
    std::string content;
    if (!pr.Read(&base) || !pr.ReadString(&content)) {
      return Error(ErrorCode::kInvalidArgument, "migration payload: truncated region");
    }
    image.pages.emplace_back(base, std::move(content));
  }
  return image;
}

Status MigrationInternal::CrossCheckAgainstJournal(const PayloadImage& image,
                                                   const VerifiedHistory& history) {
  // Only a full-history journal was shadow-replayed (the payload carries no
  // snapshot); a source that compacted its journal still ships a
  // chain-verified, signature-bound provenance, just without this check.
  if (!history.replayed || history.suffix.empty()) {
    return OkStatus();
  }

  // The journaled attested identity must be the one the payload claims.
  Digest sealed_measurement;
  bool sealed_seen = false;
  for (const JournalRecord& record : history.suffix) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kSealDomain) &&
        record.domain == image.source_domain) {
      sealed_measurement = PackedSealDigest(record);
      sealed_seen = true;
    }
  }
  if (!sealed_seen || sealed_measurement != image.measurement) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "payload measurement does not match the journaled seal");
  }

  // The replayed capability slice must be the one the payload carries.
  auto key = [](ResourceKind kind, AddrRange range, uint64_t unit, uint8_t perms) {
    return std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>(
        static_cast<uint8_t>(kind), range.base, range.size, unit, perms);
  };
  std::multiset<std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>> expect;
  for (const PayloadCap& cap : image.caps) {
    expect.insert(key(cap.kind, cap.range, cap.unit, cap.perms.mask));
  }
  std::multiset<std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint8_t>> replayed;
  for (const Capability* cap : history.engine.DomainCaps(image.source_domain)) {
    replayed.insert(key(cap->kind, cap->range, cap->unit, cap->perms.mask));
  }
  if (expect != replayed) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "payload capability set does not match the journal replay");
  }
  return OkStatus();
}

Result<MigrationInternal::StagedAdoption> MigrationInternal::StageOnDest(
    Monitor* dest, std::span<const uint8_t> payload, const SchnorrPublicKey& source_key) {
  TYCHE_FAULT_POINT(faults::kMigrateRestore);
  TYCHE_ASSIGN_OR_RETURN(const SnapshotView view, SnapshotView::Parse(payload));
  TYCHE_ASSIGN_OR_RETURN(const auto state_bytes, view.Section(kPayloadState));
  TYCHE_ASSIGN_OR_RETURN(const auto journal_bytes, view.Section(kPayloadJournal));
  TYCHE_ASSIGN_OR_RETURN(const auto meta_bytes, view.Section(kPayloadMeta));

  SectionReader mr(meta_bytes);
  uint32_t source_domain = 0;
  uint64_t head_prefix = 0;
  SchnorrSignature sig;
  if (!mr.Read(&source_domain) || !mr.Read(&head_prefix) || !mr.Read(&sig.s) ||
      !mr.ReadDigest(&sig.e) || mr.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "migration payload: bad meta section");
  }

  const Digest payload_digest = SnapshotDigest(state_bytes);
  if (!SchnorrVerify(source_key, BindingDigest(payload_digest, source_domain), sig)) {
    return Error(ErrorCode::kSignatureInvalid,
                 "migration payload not signed by the source monitor");
  }

  TYCHE_ASSIGN_OR_RETURN(const PayloadImage image, ParseStateImage(state_bytes));
  if (image.source_domain != source_domain) {
    return Error(ErrorCode::kSignatureInvalid,
                 "migration payload: state and signature disagree on the domain");
  }

  // The provenance journal: verified under the source's measured key with
  // the strict covered-tail rule (the source checkpointed before export) and
  // replayed from genesis.
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal journal, Journal::Deserialize(journal_bytes));
  TYCHE_ASSIGN_OR_RETURN(const VerifiedHistory history,
                         ReplayVerifiedJournal(journal, source_key, {},
                                               /*crashed_tail=*/false));
  TYCHE_RETURN_IF_ERROR(CrossCheckAgainstJournal(image, history));

  // Stage the adoption on a COPY of the destination engine. The record
  // family for these mutations is journaled at commit; the ids it will carry
  // are exactly the ones minted here, because the staged copy starts from
  // the live id allocator and nothing else mutates the destination while a
  // serial-mode migration is in flight.
  StagedAdoption staged;
  staged.payload_digest = payload_digest;
  staged.source_head_prefix = head_prefix;
  staged.new_id = dest->next_domain_;
  TYCHE_RETURN_IF_ERROR(staged.engine.Restore(dest->engine_.Capture()));

  staged.engine.RegisterDomain(staged.new_id, /*creator=*/0);
  TYCHE_ASSIGN_OR_RETURN(staged.handle_cap,
                         staged.engine.MintUnit(/*owner=*/0, ResourceKind::kDomain,
                                                staged.new_id, CapRights(CapRights::kAll)));
  for (const PayloadCap& cap : image.caps) {
    if (cap.kind == ResourceKind::kMemory) {
      // The destination OS must hold a capability covering the range; grants
      // carve it out exclusively, re-searching each time because earlier
      // grants donate the covering cap and mint remainders.
      CapId covering = kInvalidCap;
      for (const Capability* own : staged.engine.DomainCaps(0)) {
        if (own->kind == ResourceKind::kMemory && own->range.base <= cap.range.base &&
            !own->range.Wraps() && cap.range.end() <= own->range.end()) {
          covering = own->id;
          break;
        }
      }
      if (covering == kInvalidCap) {
        return Error(ErrorCode::kFailedPrecondition,
                     "destination lacks a covering memory capability");
      }
      TYCHE_ASSIGN_OR_RETURN(
          GrantOutcome outcome,
          staged.engine.GrantMemory(/*requester=*/0, covering, staged.new_id, cap.range,
                                    cap.perms, cap.rights, cap.policy));
      staged.grants.push_back(std::move(outcome));
    } else {
      CapId covering = kInvalidCap;
      for (const Capability* own : staged.engine.DomainCaps(0)) {
        if (own->kind == cap.kind && own->unit == cap.unit) {
          covering = own->id;
          break;
        }
      }
      if (covering == kInvalidCap) {
        return Error(ErrorCode::kFailedPrecondition,
                     "destination lacks the unit resource (core or device)");
      }
      TYCHE_ASSIGN_OR_RETURN(GrantOutcome outcome,
                             staged.engine.GrantUnit(/*requester=*/0, covering,
                                                     staged.new_id, cap.rights, cap.policy));
      staged.grants.push_back(std::move(outcome));
    }
  }
  staged.engine.SealDomain(staged.new_id);

  staged.adopted.id = staged.new_id;
  staged.adopted.creator = 0;
  staged.adopted.state = DomainState::kSealed;
  staged.adopted.name = image.name;
  staged.adopted.entry_point = image.entry_point;
  staged.adopted.entry_point_set = image.entry_point_set;
  staged.adopted.measurement = image.measurement;  // attestation continuity
  staged.adopted.scrub_on_exit = image.scrub_on_exit;
  staged.pages = std::move(image.pages);
  return staged;
}

void MigrationInternal::RollbackDest(Monitor* dest, const StagedAdoption& staged,
                                     const EngineImage& pre_engine,
                                     DomainId pre_next_domain, uint16_t pre_next_asid) {
  const Status restored = dest->engine_.Restore(pre_engine);
  if (!restored.ok()) {
    TYCHE_LOG(kError) << "migration rollback: destination pre-image refused: "
                      << restored.ToString();
  }
  dest->domains_.erase(staged.new_id);
  dest->next_domain_ = pre_next_domain;
  dest->next_asid_ = pre_next_asid;
  // Scrub the half-delivered payload pages: they carried another domain's
  // (possibly secret) state into memory the destination OS still owns.
  for (const auto& [base, content] : staged.pages) {
    (void)dest->machine_->ZeroRange(base, content.size());
  }
  const Status sync = dest->ResyncAll();
  if (!sync.ok()) {
    TYCHE_LOG(kError) << "migration rollback: destination re-sync degraded: "
                      << sync.ToString();
  }
}

Result<MigrationReport> MigrationInternal::RunFrozen(Monitor* source, Monitor* dest,
                                                     DomainId domain,
                                                     MigrationTransport* transport,
                                                     const SchnorrPublicKey& source_key,
                                                     const MigrationOptions& options) {
  MigrationReport report;

  // --- capture ---
  Digest payload_digest;
  uint64_t head_prefix = 0;
  TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> payload,
                         BuildPayload(source, domain, &payload_digest, &head_prefix));
  report.payload_digest = payload_digest;

  // --- transfer ---
  TYCHE_ASSIGN_OR_RETURN(const std::vector<uint8_t> delivered,
                         Transfer(source, transport, payload, options, &report));

  // --- restore (staged, destination untouched) ---
  TYCHE_ASSIGN_OR_RETURN(StagedAdoption staged, StageOnDest(dest, delivered, source_key));

  // --- resync: swap the staged engine in, rebuild destination hardware ---
  const EngineImage pre_engine = dest->engine_.Capture();
  const DomainId pre_next_domain = dest->next_domain_;
  const uint16_t pre_next_asid = dest->next_asid_;

  TYCHE_RETURN_IF_ERROR(dest->engine_.Restore(staged.engine.Capture()));
  staged.adopted.asid = dest->next_asid_;
  dest->domains_.emplace(staged.new_id, staged.adopted);
  dest->next_domain_ = staged.new_id + 1;
  ++dest->next_asid_;
  for (const auto& [base, content] : staged.pages) {
    const Status wrote = dest->machine_->memory().Write(
        base, std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(content.data()), content.size()));
    if (!wrote.ok()) {
      RollbackDest(dest, staged, pre_engine, pre_next_domain, pre_next_asid);
      return wrote;
    }
  }
  Status sync = Gate(faults::kMigrateResync);
  if (sync.ok()) {
    sync = dest->ResyncAll();
  }
  if (!sync.ok()) {
    RollbackDest(dest, staged, pre_engine, pre_next_domain, pre_next_asid);
    return sync;
  }

  // --- commit ---
  const Status gate = Gate(faults::kMigrateCommit);
  if (!gate.ok()) {
    RollbackDest(dest, staged, pre_engine, pre_next_domain, pre_next_asid);
    return gate;
  }
  // Source handoff first: the destination's kMigrateIn binds the link of the
  // source's kMigrateOut, which only exists once appended.
  const uint64_t out_span = source->next_span_.fetch_add(1, std::memory_order_relaxed);
  source->audit_.MigrateOut(out_span, domain, payload_digest, head_prefix);
  const Digest out_link = source->audit_.journal().head();

  const uint64_t in_span = dest->next_span_.fetch_add(1, std::memory_order_relaxed);
  dest->audit_.RegisterDomain(in_span, staged.new_id, /*creator=*/0);
  dest->audit_.MintUnit(in_span, /*owner=*/0, staged.handle_cap, ResourceKind::kDomain,
                        staged.new_id, CapRights(CapRights::kAll));
  for (const GrantOutcome& grant : staged.grants) {
    dest->audit_.Transfer(in_span, /*requester=*/0, grant, dest->engine_);
  }
  dest->audit_.SealDomain(in_span, staged.new_id, staged.adopted.measurement,
                          staged.adopted.entry_point);
  dest->audit_.MigrateIn(in_span, staged.new_id, payload_digest, DigestPrefix64(out_link));

  // The handoff is journaled: the source side is never rolled back.
  const Status teardown = source->PurgeCommit(domain, out_span, ApiOp::kOpCount, domain,
                                              /*committed=*/true);
  source->frozen_.erase(domain);
  if (!teardown.ok()) {
    TYCHE_LOG(kWarn) << "migration committed; source teardown degraded: "
                     << teardown.ToString();
  }
  report.dest_domain = staged.new_id;
  TYCHE_LOG(kInfo) << "domain " << domain << " migrated: now domain " << staged.new_id
                   << " on the destination (" << report.payload_bytes << " bytes, "
                   << report.frames_sent << " frames, " << report.retries << " retries)";
  return report;
}

Result<MigrationReport> MigrationInternal::Run(Monitor* source, Monitor* dest,
                                               DomainId domain,
                                               MigrationTransport* transport,
                                               const SchnorrPublicKey& source_key,
                                               const MigrationOptions& options) {
  TYCHE_RETURN_IF_ERROR(Freeze(source, dest, domain));
  auto result = RunFrozen(source, dest, domain, transport, source_key, options);
  if (!result.ok()) {
    RollbackSource(source, domain, result.status());
  }
  return result;
}

Result<MigrationReport> MigrateDomain(Monitor* source, Monitor* dest, DomainId domain,
                                      MigrationTransport* transport,
                                      const SchnorrPublicKey& source_key,
                                      const MigrationOptions& options) {
  return MigrationInternal::Run(source, dest, domain, transport, source_key, options);
}

void FreezeDomainForTest(Monitor* monitor, DomainId domain) {
  MigrationInternal::FreezeForTest(monitor, domain);
}

void UnfreezeDomainForTest(Monitor* monitor, DomainId domain) {
  MigrationInternal::UnfreezeForTest(monitor, domain);
}

}  // namespace tyche

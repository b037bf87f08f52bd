// Copyright 2026 The Tyche Reproduction Authors.

#include "src/capability/engine.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "src/support/faults.h"
#include "src/support/log.h"
#include "src/support/profiler.h"

namespace tyche {

namespace {

// Splits `whole` minus `sub` into at most two remainder pieces.
std::vector<AddrRange> RemainderPieces(const AddrRange& whole, const AddrRange& sub) {
  std::vector<AddrRange> pieces;
  if (sub.base > whole.base) {
    pieces.push_back(AddrRange{whole.base, sub.base - whole.base});
  }
  if (sub.end() < whole.end()) {
    pieces.push_back(AddrRange{sub.end(), whole.end() - sub.end()});
  }
  return pieces;
}

}  // namespace

std::string Capability::ToString() const {
  std::ostringstream out;
  out << "cap#" << id << " owner=" << owner << " " << ResourceKindName(kind);
  if (kind == ResourceKind::kMemory) {
    out << " [0x" << std::hex << range.base << ",0x" << range.end() << std::dec << ") "
        << perms.ToString();
  } else {
    out << " unit=" << unit;
  }
  switch (state) {
    case CapState::kActive:
      out << " active";
      break;
    case CapState::kRevoked:
      out << " revoked";
      break;
    case CapState::kDonated:
      out << " donated";
      break;
  }
  return out.str();
}

CapabilityEngine::CapabilityEngine(CapabilityEngine&& other) noexcept
    : caps_(std::move(other.caps_)),
      next_id_(other.next_id_),
      owned_(std::move(other.owned_)),
      domains_(std::move(other.domains_)) {}

CapabilityEngine& CapabilityEngine::operator=(CapabilityEngine&& other) noexcept {
  if (this != &other) {
    caps_ = std::move(other.caps_);
    next_id_ = other.next_id_;
    owned_ = std::move(other.owned_);
    domains_ = std::move(other.domains_);
  }
  return *this;
}

void CapabilityEngine::RegisterDomain(CapDomainId domain, CapDomainId creator) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  domains_[domain] = DomainInfo{creator, /*sealed=*/false};
}

void CapabilityEngine::SealDomain(CapDomainId domain) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  const auto it = domains_.find(domain);
  if (it != domains_.end()) {
    it->second.sealed = true;
  }
}

bool CapabilityEngine::IsSealed(CapDomainId domain) const {
  std::shared_lock lock(mu_);
  return IsSealedLocked(domain);
}

bool CapabilityEngine::IsSealedLocked(CapDomainId domain) const {
  const auto it = domains_.find(domain);
  return it != domains_.end() && it->second.sealed;
}

bool CapabilityEngine::IsRegistered(CapDomainId domain) const {
  std::shared_lock lock(mu_);
  return IsRegisteredLocked(domain);
}

bool CapabilityEngine::IsRegisteredLocked(CapDomainId domain) const {
  return domains_.contains(domain);
}

Capability& CapabilityEngine::NewCap(CapDomainId owner, ResourceKind kind) {
  const CapId id = next_id_++;
  Capability& cap = caps_[id];
  cap.id = id;
  cap.owner = owner;
  cap.kind = kind;
  owned_[owner].push_back(id);
  // Silent-corruption injection: drop the index entry the cap just earned.
  // The operation still succeeds -- exactly the failure mode (derived state
  // drifting from the lineage map) the invariant watchdog exists to catch.
  if (FaultInjector::active()) [[unlikely]] {
    if (!FaultInjector::Instance().Check(faults::kEngineOwnedDesync).ok()) {
      owned_[owner].pop_back();
    }
  }
  return cap;
}

Result<Capability*> CapabilityEngine::GetMutable(CapId cap) {
  const auto it = caps_.find(cap);
  if (it == caps_.end()) {
    return Error(ErrorCode::kNotFound, "no such capability");
  }
  return &it->second;
}

Result<const Capability*> CapabilityEngine::Get(CapId cap) const {
  std::shared_lock lock(mu_);
  return GetLocked(cap);
}

Result<const Capability*> CapabilityEngine::GetLocked(CapId cap) const {
  const auto it = caps_.find(cap);
  if (it == caps_.end()) {
    return Error(ErrorCode::kNotFound, "no such capability");
  }
  return &it->second;
}

Result<CapId> CapabilityEngine::MintMemory(CapDomainId owner, AddrRange range, Perms perms,
                                           CapRights rights) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(owner)) {
    return Error(ErrorCode::kNotFound, "owner domain not registered");
  }
  if (range.empty() || !IsPageAligned(range.base) || !IsPageAligned(range.size)) {
    return Error(ErrorCode::kInvalidArgument, "memory capability must be page-aligned");
  }
  Capability& cap = NewCap(owner, ResourceKind::kMemory);
  cap.range = range;
  cap.perms = perms;
  cap.rights = rights;
  cap.origin = CapOrigin::kMint;
  return cap.id;
}

Result<CapId> CapabilityEngine::MintUnit(CapDomainId owner, ResourceKind kind, uint64_t unit,
                                         CapRights rights) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(owner)) {
    return Error(ErrorCode::kNotFound, "owner domain not registered");
  }
  if (kind == ResourceKind::kMemory) {
    return Error(ErrorCode::kInvalidArgument, "use MintMemory for memory");
  }
  Capability& cap = NewCap(owner, kind);
  cap.unit = unit;
  cap.rights = rights;
  cap.origin = CapOrigin::kMint;
  return cap.id;
}

Status CapabilityEngine::CheckSealingRules(CapDomainId src_owner, CapDomainId dst) const {
  const auto dst_it = domains_.find(dst);
  if (dst_it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "destination domain not registered");
  }
  // A sealed domain's resource set cannot be extended (§3.1) -- not even by
  // its creator, or the attested configuration would be mutable.
  if (dst_it->second.sealed) {
    TYCHE_LOG(kWarn) << "sealing rules deny transfer: domain " << dst
                     << " is sealed (requested by domain " << src_owner << ")";
    return Error(ErrorCode::kDomainSealed, "cannot extend a sealed domain's resources");
  }
  // A sealed domain cannot share onward -- except into domains it created
  // itself (nested enclaves, §4.2).
  if (IsSealedLocked(src_owner) && dst_it->second.creator != src_owner) {
    TYCHE_LOG(kWarn) << "sealing rules deny transfer: sealed domain " << src_owner
                     << " may only delegate to its children, not domain " << dst;
    return Error(ErrorCode::kDomainSealed, "sealed domain may only delegate to its children");
  }
  return OkStatus();
}

Result<CapId> CapabilityEngine::ShareMemory(CapDomainId requester, CapId src_cap,
                                            CapDomainId dst, AddrRange sub, Perms perms,
                                            CapRights rights, RevocationPolicy policy,
                                            CapEffects* effects) {
  TYCHE_ASSIGN_OR_RETURN(const GrantOutcome outcome,
                         Transfer({/*grant=*/false, /*memory=*/true, requester, src_cap, dst,
                                   sub, perms, rights, policy},
                                  effects));
  return outcome.granted;
}

Result<GrantOutcome> CapabilityEngine::GrantMemory(CapDomainId requester, CapId src_cap,
                                                   CapDomainId dst, AddrRange sub,
                                                   Perms perms, CapRights rights,
                                                   RevocationPolicy policy) {
  return Transfer({/*grant=*/true, /*memory=*/true, requester, src_cap, dst, sub, perms,
                   rights, policy},
                  nullptr);
}

Result<CapId> CapabilityEngine::ShareUnit(CapDomainId requester, CapId src_cap,
                                          CapDomainId dst, CapRights rights,
                                          RevocationPolicy policy, CapEffects* effects) {
  TYCHE_ASSIGN_OR_RETURN(const GrantOutcome outcome,
                         Transfer({/*grant=*/false, /*memory=*/false, requester, src_cap, dst,
                                   /*sub=*/{}, /*perms=*/{}, rights, policy},
                                  effects));
  return outcome.granted;
}

Result<GrantOutcome> CapabilityEngine::GrantUnit(CapDomainId requester, CapId src_cap,
                                                 CapDomainId dst, CapRights rights,
                                                 RevocationPolicy policy) {
  return Transfer({/*grant=*/true, /*memory=*/false, requester, src_cap, dst, /*sub=*/{},
                   /*perms=*/{}, rights, policy},
                  nullptr);
}

Result<GrantOutcome> CapabilityEngine::Transfer(const TransferRequest& request,
                                                CapEffects* effects) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  const auto fail = [&request](ErrorCode code, const char* what) {
    return Error(code, std::string(request.grant ? "grant: " : "share: ") + what);
  };
  TYCHE_ASSIGN_OR_RETURN(Capability * src, GetMutable(request.src_cap));
  if (src->owner != request.requester) {
    return fail(ErrorCode::kCapabilityNotOwned, "requester does not own capability");
  }
  if (!src->active()) {
    return fail(ErrorCode::kCapabilityRevoked, "source capability inactive");
  }
  if ((src->kind == ResourceKind::kMemory) != request.memory) {
    return fail(ErrorCode::kInvalidArgument,
                request.memory ? "not a memory capability"
                               : (request.grant ? "use GrantMemory for memory"
                                                : "use ShareMemory for memory"));
  }
  if (!(request.grant ? src->rights.CanGrant() : src->rights.CanShare())) {
    return fail(ErrorCode::kCapabilityRightsViolation,
                request.grant ? "missing grant right" : "missing share right");
  }
  const AddrRange sub = request.sub;
  if (request.memory) {
    if (sub.empty() || !src->range.Contains(sub)) {
      return fail(ErrorCode::kOutOfRange, "sub-range outside capability");
    }
    if (!IsPageAligned(sub.base) || !IsPageAligned(sub.size)) {
      return fail(ErrorCode::kInvalidArgument, "sub-range must be page-aligned");
    }
    if (!src->perms.Covers(request.perms) || request.perms.empty()) {
      return fail(ErrorCode::kCapabilityRightsViolation, "permissions exceed source");
    }
  }
  if (!src->rights.Covers(request.rights)) {
    return fail(ErrorCode::kCapabilityRightsViolation, "rights exceed source");
  }
  TYCHE_RETURN_IF_ERROR(CheckSealingRules(request.requester, request.dst));

  // caps_ is a std::map: `src` stays valid while NewCap inserts.
  GrantOutcome outcome;
  const auto mint = [&](CapDomainId owner, CapOrigin origin) -> Capability& {
    Capability& cap = NewCap(owner, src->kind);
    cap.unit = request.memory ? 0 : src->unit;
    cap.origin = origin;
    cap.parent = src->id;
    src->children.push_back(cap.id);
    return cap;
  };
  Capability& child = mint(request.dst, request.grant ? CapOrigin::kGrant : CapOrigin::kShare);
  child.range = sub;
  child.perms = request.perms;
  child.rights = request.rights;
  child.revocation = request.policy;
  outcome.granted = child.id;
  // A grant's effects go to its outcome, a share's to the caller's list.
  CapEffects* sink = request.grant ? &outcome.effects : effects;
  if (request.grant) {
    if (request.memory) {
      for (const AddrRange& piece : RemainderPieces(src->range, sub)) {
        Capability& rem = mint(request.requester, CapOrigin::kRemainder);
        rem.range = piece;
        rem.perms = src->perms;
        rem.rights = src->rights;
        rem.revocation = src->revocation;
        outcome.remainders.push_back(rem.id);
      }
    }
    src->state = CapState::kDonated;
    // The grantor loses access to the granted resource; the recipient gains it.
    sink->Add(request.memory ? CapEffect{CapEffect::Kind::kUnmapMemory, request.requester,
                                         src->kind, sub, 0, src->perms}
                             : CapEffect{CapEffect::Kind::kDetachUnit, request.requester,
                                         src->kind, AddrRange{}, src->unit, Perms{}});
  }
  if (sink != nullptr) {
    sink->Add(request.memory ? CapEffect{CapEffect::Kind::kMapMemory, request.dst, src->kind,
                                         sub, 0, request.perms}
                             : CapEffect{CapEffect::Kind::kAttachUnit, request.dst, src->kind,
                                         AddrRange{}, src->unit, Perms{}});
  }
  return outcome;
}

void CapabilityEngine::EmitRevokeEffects(const Capability& cap, CapEffects* effects) {
  if (cap.kind == ResourceKind::kMemory) {
    effects->Add(CapEffect{CapEffect::Kind::kUnmapMemory, cap.owner, cap.kind, cap.range, 0,
                           cap.perms});
    if (cap.revocation.ZeroMemory()) {
      effects->Add(CapEffect{CapEffect::Kind::kZeroMemory, cap.owner, cap.kind, cap.range, 0,
                             Perms{}});
    }
    if (cap.revocation.FlushCache()) {
      effects->Add(CapEffect{CapEffect::Kind::kFlushCache, cap.owner, cap.kind, cap.range, 0,
                             Perms{}});
    }
  } else {
    effects->Add(CapEffect{CapEffect::Kind::kDetachUnit, cap.owner, cap.kind, AddrRange{},
                           cap.unit, Perms{}});
  }
}

uint64_t CapabilityEngine::RevokeSubtree(CapId cap_id, std::set<CapId>* visited,
                                         CapEffects* effects,
                                         std::vector<CapId>* revoked_ids) {
  if (visited->contains(cap_id)) {
    return 0;  // cycle tolerance: each node processed at most once
  }
  visited->insert(cap_id);

  const auto it = caps_.find(cap_id);
  if (it == caps_.end()) {
    return 0;
  }
  uint64_t revoked = 0;
  // Children first: a shared-out mapping must disappear before the sharer's.
  const std::vector<CapId> children = it->second.children;
  for (const CapId child : children) {
    revoked += RevokeSubtree(child, visited, effects, revoked_ids);
  }
  Capability& cap = caps_[cap_id];
  if (cap.state != CapState::kRevoked) {
    if (cap.state == CapState::kActive) {
      EmitRevokeEffects(cap, effects);
      ++revoked;
      revoked_ids->push_back(cap_id);
      // One line per cascaded deactivation; the visited-set size is the
      // evidence that cyclic sharing (A→B→A) still terminates.
      TYCHE_LOG(kTrace) << "revoke cascade: cap#" << cap_id << " owner=" << cap.owner
                        << " " << ResourceKindName(cap.kind)
                        << " visited=" << visited->size();
    }
    cap.state = CapState::kRevoked;
  }
  return revoked;
}

Result<RevokeOutcome> CapabilityEngine::Revoke(CapDomainId requester, CapId cap_id) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  return RevokeLocked(requester, cap_id);
}

Result<RevokeOutcome> CapabilityEngine::RevokeLocked(CapDomainId requester, CapId cap_id) {
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, GetLocked(cap_id));
  if (cap->state == CapState::kRevoked) {
    return Error(ErrorCode::kCapabilityRevoked, "revoke: already revoked");
  }

  bool authorized = cap->owner == requester;  // dropping one's own access
  CapDomainId grantor = kNoCreator;
  if (cap->parent != kInvalidCap) {
    const auto parent_it = caps_.find(cap->parent);
    if (parent_it != caps_.end()) {
      grantor = parent_it->second.owner;
      if (parent_it->second.owner == requester && parent_it->second.rights.CanRevoke()) {
        authorized = true;  // revoking what one shared / granted out
      }
    }
  }
  if (!authorized) {
    return Error(ErrorCode::kCapabilityRightsViolation, "revoke: not authorized");
  }

  RevokeOutcome outcome;
  std::set<CapId> visited;
  const bool was_grant = cap->origin == CapOrigin::kGrant;
  const AddrRange range = cap->range;
  const ResourceKind kind = cap->kind;
  const uint64_t unit = cap->unit;
  const CapId parent = cap->parent;

  outcome.revoked_count = RevokeSubtree(cap_id, &visited, &outcome.effects,
                                        &outcome.revoked_caps);

  // Revoking a grant returns ownership to the grantor.
  if (was_grant && grantor != kNoCreator && parent != kInvalidCap) {
    const Capability& parent_cap = caps_[parent];
    Capability& restore = NewCap(grantor, kind);
    restore.range = range;
    restore.unit = unit;
    restore.perms = parent_cap.perms;
    restore.rights = parent_cap.rights;
    restore.revocation = parent_cap.revocation;
    restore.origin = CapOrigin::kRestore;
    restore.parent = parent;
    caps_[parent].children.push_back(restore.id);
    outcome.restored = restore.id;
    if (kind == ResourceKind::kMemory) {
      outcome.effects.Add(CapEffect{CapEffect::Kind::kMapMemory, grantor, kind, range, 0,
                                    restore.perms});
    } else {
      outcome.effects.Add(
          CapEffect{CapEffect::Kind::kAttachUnit, grantor, kind, AddrRange{}, unit, Perms{}});
    }
  }
  return outcome;
}

Result<RevokeOutcome> CapabilityEngine::PurgeDomain(
    CapDomainId domain, std::vector<std::pair<CapId, RevokeOutcome>>* partial) {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::unique_lock lock(mu_);
  if (!IsRegisteredLocked(domain)) {
    return Error(ErrorCode::kNotFound, "purge: domain not registered");
  }
  RevokeOutcome total;
  // Collect first: revocation mutates the index. The owner index holds every
  // id the domain ever owned; inactive ones are skipped below.
  std::vector<CapId> owned;
  if (const auto owned_it = owned_.find(domain); owned_it != owned_.end()) {
    owned = owned_it->second;
  }
  for (const CapId id : owned) {
    const auto it = caps_.find(id);
    if (it == caps_.end() || !it->second.active()) {
      continue;  // revoked by an earlier cascade, or never activated
    }
    // A failed revoke aborts the purge: the error propagates, the domain
    // stays registered, and `partial` already names every root that DID
    // commit, so the caller can journal those and retry the remainder.
    // Revocation itself has no failing path today; the fault point models
    // one (and any future organic failure takes the same exit).
    TYCHE_FAULT_POINT(faults::kEnginePurgeRevoke);
    auto result = RevokeLocked(domain, id);
    if (!result.ok()) {
      return result.status();
    }
    total.revoked_count += result->revoked_count;
    total.revoked_caps.insert(total.revoked_caps.end(), result->revoked_caps.begin(),
                              result->revoked_caps.end());
    total.effects.Append(result->effects);
    if (partial != nullptr) {
      partial->emplace_back(id, *result);
    }
  }
  owned_.erase(domain);
  domains_.erase(domain);
  return total;
}

std::vector<const Capability*> CapabilityEngine::DomainCaps(CapDomainId domain) const {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::shared_lock lock(mu_);
  std::vector<const Capability*> out;
  const auto owned_it = owned_.find(domain);
  if (owned_it == owned_.end()) {
    return out;
  }
  for (const CapId id : owned_it->second) {
    const auto it = caps_.find(id);
    if (it != caps_.end() && it->second.active()) {
      out.push_back(&it->second);
    }
  }
  return out;
}

Perms CapabilityEngine::EffectivePerms(CapDomainId domain, uint64_t addr) const {
  std::shared_lock lock(mu_);
  uint8_t mask = Perms::kNone;
  const auto owned_it = owned_.find(domain);
  if (owned_it == owned_.end()) {
    return Perms(mask);
  }
  for (const CapId id : owned_it->second) {
    const auto it = caps_.find(id);
    if (it == caps_.end()) {
      continue;
    }
    const Capability& cap = it->second;
    if (cap.active() && cap.kind == ResourceKind::kMemory && cap.range.Contains(addr)) {
      mask |= cap.perms.mask;
    }
  }
  return Perms(mask);
}

bool CapabilityEngine::HasUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const {
  std::shared_lock lock(mu_);
  const auto owned_it = owned_.find(domain);
  if (owned_it == owned_.end()) {
    return false;
  }
  for (const CapId id : owned_it->second) {
    const auto it = caps_.find(id);
    if (it == caps_.end()) {
      continue;
    }
    const Capability& cap = it->second;
    if (cap.active() && cap.kind == kind && cap.unit == unit) {
      return true;
    }
  }
  return false;
}

uint32_t CapabilityEngine::MemoryRefCount(AddrRange range) const {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == ResourceKind::kMemory && cap.range.Overlaps(range)) {
      holders.insert(cap.owner);
    }
  }
  return static_cast<uint32_t>(holders.size());
}

uint32_t CapabilityEngine::UnitRefCount(ResourceKind kind, uint64_t unit) const {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::shared_lock lock(mu_);
  std::set<CapDomainId> holders;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == kind && cap.unit == unit) {
      holders.insert(cap.owner);
    }
  }
  return static_cast<uint32_t>(holders.size());
}

bool CapabilityEngine::ExclusivelyOwned(CapDomainId domain, AddrRange range) const {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::shared_lock lock(mu_);
  if (range.empty()) {
    return false;
  }
  // Every byte must be covered by `domain` and by no one else. Check
  // coverage at region granularity using the view.
  for (const RegionView& view : MemoryViewLocked(0)) {
    if (!view.range.Overlaps(range)) {
      continue;
    }
    if (view.domains.size() != 1 || view.domains[0] != domain) {
      return false;
    }
  }
  // Check full coverage: union of owned caps must contain range.
  const auto owned_it = owned_.find(domain);
  if (owned_it == owned_.end()) {
    return false;
  }
  uint64_t covered_until = range.base;
  bool progress = true;
  while (covered_until < range.end() && progress) {
    progress = false;
    for (const CapId id : owned_it->second) {
      const auto it = caps_.find(id);
      if (it == caps_.end()) {
        continue;
      }
      const Capability& cap = it->second;
      if (cap.active() && cap.kind == ResourceKind::kMemory &&
          cap.range.Contains(covered_until)) {
        covered_until = cap.range.end();
        progress = true;
        break;
      }
    }
  }
  return covered_until >= range.end();
}

std::vector<CapabilityEngine::MappedRegion> CapabilityEngine::DomainMemoryMap(
    CapDomainId domain) const {
  std::shared_lock lock(mu_);
  std::vector<const Capability*> mem_caps;
  std::vector<uint64_t> boundaries;
  if (const auto owned_it = owned_.find(domain); owned_it != owned_.end()) {
    for (const CapId id : owned_it->second) {
      const auto it = caps_.find(id);
      if (it == caps_.end()) {
        continue;
      }
      const Capability& cap = it->second;
      if (cap.active() && cap.kind == ResourceKind::kMemory) {
        mem_caps.push_back(&cap);
        boundaries.push_back(cap.range.base);
        boundaries.push_back(cap.range.end());
      }
    }
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  std::vector<MappedRegion> regions;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const AddrRange interval{boundaries[i], boundaries[i + 1] - boundaries[i]};
    uint8_t mask = Perms::kNone;
    for (const Capability* cap : mem_caps) {
      if (cap->range.Overlaps(interval)) {
        mask |= cap->perms.mask;
      }
    }
    if (mask == Perms::kNone) {
      continue;
    }
    if (!regions.empty() && regions.back().range.end() == interval.base &&
        regions.back().perms.mask == mask) {
      regions.back().range.size += interval.size;
    } else {
      regions.push_back(MappedRegion{interval, Perms(mask)});
    }
  }
  return regions;
}

std::vector<RegionView> CapabilityEngine::MemoryView(uint64_t limit) const {
  const ScopedPhase phase(DispatchPhase::kEngine);
  std::shared_lock lock(mu_);
  return MemoryViewLocked(limit);
}

std::vector<RegionView> CapabilityEngine::MemoryViewLocked(uint64_t limit) const {
  std::vector<uint64_t> boundaries;
  std::vector<const Capability*> mem_caps;
  for (const auto& [id, cap] : caps_) {
    if (cap.active() && cap.kind == ResourceKind::kMemory) {
      if (limit != 0 && cap.range.base >= limit) {
        continue;
      }
      mem_caps.push_back(&cap);
      boundaries.push_back(cap.range.base);
      boundaries.push_back(limit != 0 ? std::min(cap.range.end(), limit) : cap.range.end());
    }
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  std::vector<RegionView> views;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const AddrRange interval{boundaries[i], boundaries[i + 1] - boundaries[i]};
    std::set<CapDomainId> holders;
    for (const Capability* cap : mem_caps) {
      if (cap->range.Overlaps(interval)) {
        holders.insert(cap->owner);
      }
    }
    if (holders.empty()) {
      continue;
    }
    RegionView view;
    view.range = interval;
    view.domains.assign(holders.begin(), holders.end());
    // Merge with the previous view when contiguous and identical.
    if (!views.empty() && views.back().range.end() == interval.base &&
        views.back().domains == view.domains) {
      views.back().range.size += interval.size;
    } else {
      views.push_back(std::move(view));
    }
  }
  return views;
}

uint64_t CapabilityEngine::total_caps() const {
  std::shared_lock lock(mu_);
  return static_cast<uint64_t>(caps_.size());
}

uint64_t CapabilityEngine::active_caps() const {
  std::shared_lock lock(mu_);
  uint64_t count = 0;
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      ++count;
    }
  }
  return count;
}

// The ForEach walks and DumpTree run the callback under the shared lock:
// callbacks must not call back into the engine.
void CapabilityEngine::ForEachActive(const std::function<void(const Capability&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, cap] : caps_) {
    if (cap.active()) {
      fn(cap);
    }
  }
}

void CapabilityEngine::ForEach(const std::function<void(const Capability&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, cap] : caps_) {
    fn(cap);
  }
}

Status CapabilityEngine::CheckOwnedIndex() const {
  std::shared_lock lock(mu_);
  // Expected per-owner counts from the lineage map (the source of truth).
  std::map<CapDomainId, uint64_t> expected;
  for (const auto& [id, cap] : caps_) {
    if (domains_.contains(cap.owner)) {
      ++expected[cap.owner];
    }
  }
  uint64_t indexed_total = 0;
  for (const auto& [owner, ids] : owned_) {
    for (const CapId id : ids) {
      const auto it = caps_.find(id);
      if (it == caps_.end()) {
        return Error(ErrorCode::kInternal, "owner index names a nonexistent capability");
      }
      if (it->second.owner != owner) {
        return Error(ErrorCode::kInternal, "owner index entry under the wrong owner");
      }
    }
    const auto want = expected.find(owner);
    const uint64_t want_count = want == expected.end() ? 0 : want->second;
    if (ids.size() != want_count) {
      return Error(ErrorCode::kInternal, "owner index count disagrees with lineage map");
    }
    indexed_total += ids.size();
  }
  // Totals catch an owner bucket that is missing entirely.
  uint64_t expected_total = 0;
  for (const auto& [owner, count] : expected) {
    expected_total += count;
  }
  if (indexed_total != expected_total) {
    return Error(ErrorCode::kInternal, "owner index is missing a domain's bucket");
  }
  return OkStatus();
}

std::string CapabilityEngine::DumpTree() const {
  std::shared_lock lock(mu_);
  std::ostringstream out;
  std::function<void(CapId, int)> recurse = [&](CapId id, int depth) {
    const auto it = caps_.find(id);
    if (it == caps_.end()) {
      return;
    }
    for (int i = 0; i < depth; ++i) {
      out << "  ";
    }
    out << it->second.ToString() << "\n";
    for (const CapId child : it->second.children) {
      recurse(child, depth + 1);
    }
  };
  for (const auto& [id, cap] : caps_) {
    if (cap.parent == kInvalidCap) {
      recurse(id, 0);
    }
  }
  return out.str();
}

EngineImage CapabilityEngine::Capture() const {
  std::shared_lock lock(mu_);
  EngineImage image;
  image.caps.reserve(caps_.size());
  for (const auto& [id, cap] : caps_) {
    image.caps.push_back(cap);
  }
  image.domains.reserve(domains_.size());
  for (const auto& [id, info] : domains_) {
    image.domains.push_back(EngineImage::DomainEntry{id, info.creator, info.sealed});
  }
  image.next_id = next_id_;
  return image;
}

Status CapabilityEngine::Restore(const EngineImage& image) {
  std::unique_lock lock(mu_);
  // Validate before mutating anything: a corrupted snapshot must not leave
  // the engine half-installed.
  std::map<CapDomainId, DomainInfo> domains;
  for (const EngineImage::DomainEntry& entry : image.domains) {
    if (!domains.emplace(entry.id, DomainInfo{entry.creator, entry.sealed}).second) {
      return Error(ErrorCode::kInvalidArgument, "engine image: duplicate domain");
    }
  }
  std::map<CapId, Capability> caps;
  for (const Capability& cap : image.caps) {
    if (cap.id == kInvalidCap || cap.id >= image.next_id) {
      return Error(ErrorCode::kInvalidArgument, "engine image: cap id out of range");
    }
    // Only ACTIVE caps need a registered owner. Lineage tombstones survive
    // PurgeDomain (revocation never deletes nodes, the purge unregisters the
    // domain), so a faithful Capture of a healthy engine can legitimately
    // carry inactive caps whose owner is gone.
    if (cap.active() && domains.find(cap.owner) == domains.end()) {
      return Error(ErrorCode::kInvalidArgument,
                   "engine image: active cap " + std::to_string(cap.id) +
                       " owned by unregistered domain " + std::to_string(cap.owner));
    }
    if (!caps.emplace(cap.id, cap).second) {
      return Error(ErrorCode::kInvalidArgument, "engine image: duplicate cap id");
    }
  }
  for (const auto& [id, cap] : caps) {
    if (cap.parent != kInvalidCap && caps.find(cap.parent) == caps.end()) {
      return Error(ErrorCode::kInvalidArgument, "engine image: dangling parent");
    }
    for (const CapId child : cap.children) {
      if (caps.find(child) == caps.end()) {
        return Error(ErrorCode::kInvalidArgument, "engine image: dangling child");
      }
    }
  }
  caps_ = std::move(caps);
  domains_ = std::move(domains);
  next_id_ = image.next_id;
  // Rebuild the derived owner index (images predate it / never carry it).
  // std::map iteration is id order, matching NewCap's mint-order appends.
  owned_.clear();
  for (const auto& [id, cap] : caps_) {
    owned_[cap.owner].push_back(id);
  }
  return OkStatus();
}

}  // namespace tyche

// Copyright 2026 The Tyche Reproduction Authors.
// The platform-independent capability engine (§4.1).
//
// Grant, share, and revoke operations "modify a tree structure that
// represents a capability's lineage, maintains per-resource reference
// counts, and facilitates cascading revocations, even in the presence of
// circular sharing". This engine is pure bookkeeping: it never touches
// hardware. Every mutating operation returns the *effects* the executive
// (the monitor's backend) must apply -- mappings to install or remove and
// cleanup obligations (zero / cache flush) to honour.
//
// Semantics implemented here, chosen to match the paper:
//  - Share(src, dst, sub): duplicates access. The source stays active; a new
//    child capability owned by dst is created. Reference counts of the
//    shared bytes go up if dst had no prior access.
//  - Grant(src, dst, sub): moves exclusive control. The source capability is
//    deactivated ("donated"); children are created for the granted piece
//    (owned by dst) and for every remainder piece (owned by the grantor).
//  - Revoke(cap): deactivates cap and its entire active subtree (cascading).
//    Revoking a granted capability creates a "restore" capability returning
//    ownership to the grantor. A visited set makes the cascade terminate
//    even when domains share in cycles (A→B→A→...).
//  - Sealed domains can neither receive new capabilities nor share/grant
//    onward -- except to domains they created themselves (their nested
//    children), which is what lets sealed enclaves spawn nested enclaves
//    (§4.2) without invalidating their attested sharing state.

#ifndef SRC_CAPABILITY_ENGINE_H_
#define SRC_CAPABILITY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/capability/capability.h"
#include "src/capability/types.h"
#include "src/support/status.h"

namespace tyche {

// One entry of the effect list returned by mutating operations.
struct CapEffect {
  enum class Kind : uint8_t {
    kMapMemory,      // domain gained access to range with perms
    kUnmapMemory,    // domain lost access to range (recompute residual perms!)
    kZeroMemory,     // revocation policy: zero the range
    kFlushCache,     // revocation policy: flush caches for the range
    kAttachUnit,     // domain gained a core / device / domain handle
    kDetachUnit,     // domain lost a core / device / domain handle
  };

  Kind kind;
  CapDomainId domain = 0;
  ResourceKind resource = ResourceKind::kMemory;
  AddrRange range;
  uint64_t unit = 0;
  Perms perms;
};

struct CapEffects {
  std::vector<CapEffect> effects;

  void Add(CapEffect effect) { effects.push_back(effect); }
  void Append(const CapEffects& other) {
    effects.insert(effects.end(), other.effects.begin(), other.effects.end());
  }
};

// Result of a Grant: the capability now owned by the recipient plus the
// remainder capabilities returned to the grantor.
struct GrantOutcome {
  CapId granted = kInvalidCap;
  std::vector<CapId> remainders;
  CapEffects effects;
};

struct RevokeOutcome {
  // Number of capabilities deactivated by the cascade.
  uint64_t revoked_count = 0;
  // The deactivated capabilities in cascade (post-order) sequence. The audit
  // journal emits one cascade record per entry; replay cross-checks them.
  std::vector<CapId> revoked_caps;
  // Capability restoring ownership to the grantor (grants only).
  CapId restored = kInvalidCap;
  CapEffects effects;
};

// A maximal memory interval over which the set of domains with active access
// is constant. The sequence of these reconstructs the paper's Figure 4.
struct RegionView {
  AddrRange range;
  std::vector<CapDomainId> domains;  // sorted, distinct
  uint32_t ref_count() const { return static_cast<uint32_t>(domains.size()); }
};

// A value-type copy of the engine's complete state — every lineage node
// (active or not), the domain table, and the id allocator. Capture/Restore
// round-trips through this for snapshots and recovery.
struct EngineImage {
  struct DomainEntry {
    CapDomainId id = 0;
    CapDomainId creator = 0;
    bool sealed = false;
  };
  std::vector<Capability> caps;     // in id order
  std::vector<DomainEntry> domains; // in id order
  CapId next_id = 1;
};

// Thread-safety contract (DESIGN.md §10): every public method takes the
// engine's internal reader-writer lock — shared for queries, exclusive for
// mutations — so the engine is individually safe under concurrent dispatch.
// Pointer-returning queries (Get, DomainCaps) hand out pointers into the
// lineage map; std::map node stability keeps them alive across OTHER
// insertions, but they are only meaningful until the next mutation. The
// monitor's dispatch-level lock provides that ordering: readers holding such
// pointers exclude mutators for the duration of their operation.
class CapabilityEngine {
 public:
  CapabilityEngine() = default;

  // Moves the STATE, not the lock (mutexes are not movable). Both engines
  // must be externally quiesced — used by recovery to install a staged
  // engine, which runs strictly single-threaded.
  CapabilityEngine(CapabilityEngine&& other) noexcept;
  CapabilityEngine& operator=(CapabilityEngine&& other) noexcept;

  // --- Domain lifecycle hooks (driven by the monitor) ---

  // Registers a domain and who created it (kInvalidDomainId for the root).
  static constexpr CapDomainId kNoCreator = ~0u;
  void RegisterDomain(CapDomainId domain, CapDomainId creator);
  void SealDomain(CapDomainId domain);
  bool IsSealed(CapDomainId domain) const;
  bool IsRegistered(CapDomainId domain) const;
  // Removes a dead domain: revokes every active capability it owns, then
  // unregisters it. All-or-unregister: if any per-root revoke fails, the
  // error is propagated, the domain stays REGISTERED, and the caps already
  // revoked stay revoked (revocation never resurrects). `partial`, when
  // non-null, receives one (root cap, outcome) pair per revoke that DID
  // commit before the failure, in order, so the caller can journal them and
  // retry the purge over whatever remains.
  Result<RevokeOutcome> PurgeDomain(
      CapDomainId domain,
      std::vector<std::pair<CapId, RevokeOutcome>>* partial = nullptr);

  // --- Minting (boot / monitor only; not reachable from the domain API) ---

  Result<CapId> MintMemory(CapDomainId owner, AddrRange range, Perms perms, CapRights rights);
  Result<CapId> MintUnit(CapDomainId owner, ResourceKind kind, uint64_t unit,
                         CapRights rights);

  // --- The isolation API (§3.2) ---

  // Shares `sub` of memory capability `src_cap` with `dst`. `perms` must be
  // a subset of the source permissions, `rights` a subset of source rights.
  Result<CapId> ShareMemory(CapDomainId requester, CapId src_cap, CapDomainId dst,
                            AddrRange sub, Perms perms, CapRights rights,
                            RevocationPolicy policy, CapEffects* effects);

  // Grants (moves) `sub` of `src_cap` to `dst` exclusively.
  Result<GrantOutcome> GrantMemory(CapDomainId requester, CapId src_cap, CapDomainId dst,
                                   AddrRange sub, Perms perms, CapRights rights,
                                   RevocationPolicy policy);

  // Unit resources (cores, devices, domain handles) are shared / granted
  // whole.
  Result<CapId> ShareUnit(CapDomainId requester, CapId src_cap, CapDomainId dst,
                          CapRights rights, RevocationPolicy policy, CapEffects* effects);
  Result<GrantOutcome> GrantUnit(CapDomainId requester, CapId src_cap, CapDomainId dst,
                                 CapRights rights, RevocationPolicy policy);

  // Revokes `cap` (and its subtree). The requester must own the parent of
  // `cap` with kRevoke rights, or own `cap` itself (dropping one's own
  // access is always allowed).
  Result<RevokeOutcome> Revoke(CapDomainId requester, CapId cap);

  // --- Queries (attestation + enforcement support) ---

  Result<const Capability*> Get(CapId cap) const;

  // All active capabilities owned by a domain.
  std::vector<const Capability*> DomainCaps(CapDomainId domain) const;

  // Effective memory permissions of a domain at `addr` (union over active
  // caps). Used by backends to recompute residual access after revocation.
  Perms EffectivePerms(CapDomainId domain, uint64_t addr) const;

  // Does the domain hold an active unit capability?
  bool HasUnit(CapDomainId domain, ResourceKind kind, uint64_t unit) const;

  // Reference count: number of distinct domains with active access
  // overlapping `range` (memory) / holding `unit`.
  uint32_t MemoryRefCount(AddrRange range) const;
  uint32_t UnitRefCount(ResourceKind kind, uint64_t unit) const;

  // True iff `domain` is the only domain with access to every byte of range.
  bool ExclusivelyOwned(CapDomainId domain, AddrRange range) const;

  // The domain's effective memory map: maximal intervals with constant
  // non-empty effective permissions, sorted by base. This is what a backend
  // must make the hardware enforce.
  struct MappedRegion {
    AddrRange range;
    Perms perms;
    bool operator==(const MappedRegion&) const = default;
  };
  std::vector<MappedRegion> DomainMemoryMap(CapDomainId domain) const;

  // Figure 4: the physical memory view as maximal constant-refcount regions.
  // Only ranges below `limit` are reported (0 = no limit).
  std::vector<RegionView> MemoryView(uint64_t limit = 0) const;

  // Lineage inspection (for audits and tests).
  uint64_t total_caps() const;
  uint64_t active_caps() const;
  std::string DumpTree() const;

  // Cross-checks the per-owner index (owned_) against the lineage map: every
  // indexed id must exist with the matching owner, every cap must be indexed
  // under its owner, and per-owner counts must agree. O(caps) under a shared
  // lock; run by the invariant watchdog to catch silent index desync that no
  // single query would notice (a missing entry just makes a cap invisible to
  // owner-filtered queries).
  Status CheckOwnedIndex() const;

  // Walks every active capability (hardware-consistency validator support).
  void ForEachActive(const std::function<void(const Capability&)>& fn) const;

  // Walks EVERY lineage node, active or not, in id order. Revoked and
  // donated nodes are history a verifier may want to see (graph export).
  void ForEach(const std::function<void(const Capability&)>& fn) const;

  // --- Snapshot / recovery support ---

  // A complete value copy of the engine state.
  EngineImage Capture() const;
  // Replaces the engine state with `image`. Rejects internally inconsistent
  // images (id mismatches, parents pointing at missing nodes, caps owned by
  // unregistered domains) so a corrupted snapshot cannot half-install.
  Status Restore(const EngineImage& image);

 private:
  // *Locked variants run with mu_ already held; public methods that other
  // engine methods call internally split into a lock-taking wrapper and a
  // Locked body (std::shared_mutex is not recursive).
  bool IsSealedLocked(CapDomainId domain) const;
  bool IsRegisteredLocked(CapDomainId domain) const;
  Result<const Capability*> GetLocked(CapId cap) const;
  Result<RevokeOutcome> RevokeLocked(CapDomainId requester, CapId cap);
  std::vector<RegionView> MemoryViewLocked(uint64_t limit) const;

  Capability& NewCap(CapDomainId owner, ResourceKind kind);
  Result<Capability*> GetMutable(CapId cap);

  // Checks the sealing rules for moving resources from src_owner to dst.
  Status CheckSealingRules(CapDomainId src_owner, CapDomainId dst) const;

  // One request to the transfer core. `sub` and `perms` are read for memory
  // only; units move whole.
  struct TransferRequest {
    bool grant = false;
    bool memory = false;
    CapDomainId requester = 0;
    CapId src_cap = kInvalidCap;
    CapDomainId dst = 0;
    AddrRange sub;
    Perms perms;
    CapRights rights;
    RevocationPolicy policy;
  };
  // The one body behind ShareMemory/GrantMemory/ShareUnit/GrantUnit:
  // validates (owner, active, kind, share/grant right, sub-range and perms
  // for memory, rights, sealing -- in that order, before any id is
  // consumed), mints the child, and for a grant the remainders and the
  // donation. A share's effects go to `effects` (may be null); a grant's go
  // to the outcome. For a share, `granted` is the new child.
  Result<GrantOutcome> Transfer(const TransferRequest& request, CapEffects* effects);

  // Cascade: deactivates the subtree rooted at `cap` (inclusive), appending
  // effects and the deactivated ids. Returns number of caps deactivated.
  uint64_t RevokeSubtree(CapId cap, std::set<CapId>* visited, CapEffects* effects,
                         std::vector<CapId>* revoked_ids);

  // Emits the unmap/detach + cleanup effects for one deactivated cap.
  void EmitRevokeEffects(const Capability& cap, CapEffects* effects);

  // Shared for queries, exclusive for mutations. Leaf lock: the engine never
  // calls out of itself while holding it.
  mutable std::shared_mutex mu_;

  std::map<CapId, Capability> caps_;
  CapId next_id_ = 1;

  // Per-owner index: every cap id EVER owned by a domain, in mint order.
  // Ownership is immutable (grants and restores mint NEW caps), so entries
  // are only appended by NewCap, rebuilt by Restore, and dropped when a purge
  // unregisters the domain. Readers filter on active(); this turns the
  // owner-filtered queries (DomainCaps, EffectivePerms, DomainMemoryMap, the
  // purge collection pass) from whole-lineage scans into direct lookups. Not
  // part of EngineImage: it is derived state.
  std::map<CapDomainId, std::vector<CapId>> owned_;

  struct DomainInfo {
    CapDomainId creator = kNoCreator;
    bool sealed = false;
  };
  std::map<CapDomainId, DomainInfo> domains_;
};

}  // namespace tyche

#endif  // SRC_CAPABILITY_ENGINE_H_

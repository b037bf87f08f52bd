// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/monitor.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/authenticated.h"
#include "src/monitor/pmp_backend.h"
#include "src/monitor/vtx_backend.h"
#include "src/support/faults.h"
#include "src/support/locking.h"
#include "src/support/log.h"

namespace tyche {

const char* ApiOpName(ApiOp op) {
  switch (op) {
    case ApiOp::kCreateDomain:
      return "create_domain";
    case ApiOp::kSetEntryPoint:
      return "set_entry_point";
    case ApiOp::kShareMemory:
      return "share_memory";
    case ApiOp::kGrantMemory:
      return "grant_memory";
    case ApiOp::kShareUnit:
      return "share_unit";
    case ApiOp::kGrantUnit:
      return "grant_unit";
    case ApiOp::kRevoke:
      return "revoke";
    case ApiOp::kExtendMeasurement:
      return "extend_measurement";
    case ApiOp::kSeal:
      return "seal";
    case ApiOp::kAttestDomain:
      return "attest_domain";
    case ApiOp::kEnumerate:
      return "enumerate";
    case ApiOp::kTransition:
      return "transition";
    case ApiOp::kReturn:
      return "return";
    case ApiOp::kRegisterFastTransition:
      return "register_fast_transition";
    case ApiOp::kFastTransition:
      return "fast_transition";
    case ApiOp::kDestroyDomain:
      return "destroy_domain";
    case ApiOp::kRouteInterrupt:
      return "route_interrupt";
    case ApiOp::kTakeInterrupt:
      return "take_interrupt";
    case ApiOp::kSetTransitionPolicy:
      return "set_transition_policy";
    case ApiOp::kSealData:
      return "seal_data";
    case ApiOp::kUnsealData:
      return "unseal_data";
    case ApiOp::kOpCount:
      break;
  }
  return "?";
}

namespace {

// The `kind` label of each tyche_effects_total series.
const char* CapEffectKindName(CapEffect::Kind kind) {
  switch (kind) {
    case CapEffect::Kind::kMapMemory:
      return "map";
    case CapEffect::Kind::kUnmapMemory:
      return "unmap";
    case CapEffect::Kind::kZeroMemory:
      return "zero";
    case CapEffect::Kind::kFlushCache:
      return "flush";
    case CapEffect::Kind::kAttachUnit:
      return "attach";
    case CapEffect::Kind::kDetachUnit:
      return "detach";
  }
  return "?";
}

}  // namespace

Monitor::Monitor(Machine* machine, AddrRange monitor_range, FrameAllocator metadata_pool,
                 SchnorrKeyPair key)
    : machine_(machine),
      monitor_range_(monitor_range),
      metadata_pool_(metadata_pool),
      key_(key) {
  if (machine_->arch() == IsaArch::kX86_64) {
    backend_ = std::make_unique<VtxBackend>(machine_, &engine_, &metadata_pool_);
  } else {
    backend_ = std::make_unique<PmpBackend>(machine_, &engine_, monitor_range_);
  }
  watchdog_.set_backend(backend_.get());
  call_stacks_.resize(machine_->num_cores());
  active_spans_.resize(machine_->num_cores(), 0);

  // The journal's ticks come from the simulated cycle account; checkpoints
  // are signed under the monitor's attestation key, binding the history to
  // the same identity as domain attestations.
  audit_.journal().set_tick_source([this] { return machine_->cycles().cycles(); });
  audit_.journal().set_signer(
      [this](const Digest& digest) { return SchnorrSign(key_.priv, digest); });

  // Sealing root: bound to the monitor's (measurement-derived) identity key,
  // so blobs only open under the same monitor image.
  uint8_t key_bytes[8];
  std::memcpy(key_bytes, &key_.priv.x, sizeof(key_bytes));
  const std::string_view label = "tyche-sealing-root-v1";
  sealing_root_ = HmacSha256(
      std::span<const uint8_t>(key_bytes, sizeof(key_bytes)),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(label.data()),
                               label.size()));

  RegisterMetrics();
}

void Monitor::RegisterMetrics() {
  // Native striped counters: the hot-path signals the dispatcher bumps.
  for (size_t op = 0; op < static_cast<size_t>(ApiOp::kOpCount); ++op) {
    const MetricLabels labels = {{"op", ApiOpName(static_cast<ApiOp>(op))}};
    counters_.api_calls[op] = metrics_.AddCounter(
        "tyche_api_calls_total", "ABI calls dispatched, by operation", labels);
    metrics_.AddHistogram(
        "tyche_dispatch_latency_ns",
        "Monitor-side wall-clock latency per ABI call (log2 buckets)", labels,
        [this, op] { return telemetry_.OpHistogram(op); });
  }
  counters_.transitions = metrics_.AddCounter(
      "tyche_transitions_total", "Inter-domain control transfers, by path",
      {{"path", "trap"}});
  counters_.fast_transitions = metrics_.AddCounter(
      "tyche_transitions_total", "Inter-domain control transfers, by path",
      {{"path", "fast"}});
  counters_.shares =
      metrics_.AddCounter("tyche_capability_ops_total",
                          "Successful capability-graph mutations", {{"kind", "share"}});
  counters_.grants =
      metrics_.AddCounter("tyche_capability_ops_total",
                          "Successful capability-graph mutations", {{"kind", "grant"}});
  counters_.revokes =
      metrics_.AddCounter("tyche_capability_ops_total",
                          "Successful capability-graph mutations", {{"kind", "revoke"}});
  counters_.revocations_cascaded = metrics_.AddCounter(
      "tyche_revocations_cascaded_total",
      "Capabilities revoked transitively by cascading revocation");
  counters_.recoveries = metrics_.AddCounter(
      "tyche_recoveries_total",
      "Crash recoveries survived; the only counter that crosses Recover()");
  constexpr CapEffect::Kind kKinds[] = {
      CapEffect::Kind::kMapMemory,  CapEffect::Kind::kUnmapMemory,
      CapEffect::Kind::kZeroMemory, CapEffect::Kind::kFlushCache,
      CapEffect::Kind::kAttachUnit, CapEffect::Kind::kDetachUnit,
  };
  for (const CapEffect::Kind kind : kKinds) {
    counters_.effects_by_kind[static_cast<size_t>(kind)] = metrics_.AddCounter(
        "tyche_effects_total",
        "Hardware obligations produced by capability operations, by effect kind",
        {{"kind", CapEffectKindName(kind)}});
  }

  // Pull callbacks for signals owned elsewhere. All of these are read under
  // the api lock at export time (ExportMetrics quiesces dispatchers), so
  // plain-field sources (backend stats, domain table) are safe.
  struct BackendField {
    const char* op;
    uint64_t BackendStats::*field;
  };
  static constexpr BackendField kBackendFields[] = {
      {"memory_syncs", &BackendStats::memory_syncs},
      {"pages_mapped", &BackendStats::pages_mapped},
      {"pages_unmapped", &BackendStats::pages_unmapped},
      {"pages_protected", &BackendStats::pages_protected},
      {"pmp_recompiles", &BackendStats::pmp_recompiles},
      {"pmp_entry_writes", &BackendStats::pmp_entry_writes},
      {"tlb_shootdowns", &BackendStats::tlb_shootdowns},
      {"iommu_updates", &BackendStats::iommu_updates},
      {"core_binds", &BackendStats::core_binds},
      {"fast_binds", &BackendStats::fast_binds},
  };
  for (const BackendField& field : kBackendFields) {
    metrics_.AddCallback(
        "tyche_backend_ops_total",
        "Hardware projection operations performed by the platform backend", true,
        {{"backend", backend_->name()}, {"op", field.op}},
        [this, ptr = field.field] { return backend_->stats().*ptr; });
  }
  metrics_.AddCallback("tyche_journal_records", "Audit-journal chain length (records)",
                       false, {}, [this] { return audit_.journal().size(); });
  metrics_.AddCallback("tyche_journal_checkpoints",
                       "Signed checkpoints in the audit journal", false, {},
                       [this] { return audit_.journal().checkpoint_count(); });
  metrics_.AddCallback(
      "tyche_journal_group_commit_batches_total",
      "Flat-combining group-commit batches flushed by the journal", true, {},
      [this] { return audit_.journal().group_commit_stats().batches; });
  metrics_.AddCallback(
      "tyche_journal_group_commit_records_total",
      "Records flushed through group-commit batches", true, {},
      [this] { return audit_.journal().group_commit_stats().batched_records; });
  metrics_.AddCallback(
      "tyche_journal_group_commit_max_batch", "Largest group-commit batch observed",
      false, {}, [this] { return audit_.journal().group_commit_stats().max_batch; });
  metrics_.AddCallback("tyche_trace_recorded_total",
                       "ABI calls recorded into the trace ring", true, {},
                       [this] { return telemetry_.ring().recorded(); });
  metrics_.AddCallback("tyche_trace_dropped_total",
                       "Trace entries overwritten by ring wrap-around", true, {},
                       [this] { return telemetry_.ring().dropped(); });
  metrics_.AddCallback("tyche_lock_contention_total",
                       "Conditional-guard acquisitions that had to block", true,
                       {{"class", "exclusive"}},
                       [this] { return telemetry_.exclusive_contention()->Value(); });
  metrics_.AddCallback("tyche_lock_contention_total",
                       "Conditional-guard acquisitions that had to block", true,
                       {{"class", "shared"}},
                       [this] { return telemetry_.shared_contention()->Value(); });
  metrics_.AddCallback(
      "tyche_fault_injections_fired_total",
      "Deterministic fault injections delivered over the process lifetime", true, {},
      [] { return FaultInjector::Instance().lifetime_fired_count(); });
  metrics_.AddCallback(
      "tyche_fault_injection_active",
      "1 while a fault plan is armed or occurrence counting is on", false, {},
      [] { return FaultInjector::active() ? 1u : 0u; });
  metrics_.AddCallback("tyche_domains_alive", "Trust domains currently alive", false, {},
                       [this] { return num_domains_alive(); });
  // captures() is a bare atomic, so this callback never touches the flight
  // recorder's mutex (a size() callback would deadlock against a capture
  // that is concurrently reading ScalarValues from the registry).
  metrics_.AddCallback("tyche_flight_captures_total",
                       "Post-mortem flight records captured", true, {},
                       [this] { return flight_.captures(); });

  // Phase-attribution profiler (DESIGN.md §6): per (op, phase) latency
  // histograms plus the slowest sample's size / span / timestamp, so a
  // histogram outlier is joinable into the Chrome trace. All empty until
  // the profiler is enabled.
  for (size_t op = 0; op < static_cast<size_t>(ApiOp::kOpCount); ++op) {
    for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
      const auto p = static_cast<DispatchPhase>(phase);
      const uint16_t op16 = static_cast<uint16_t>(op);
      const MetricLabels labels = {{"op", ApiOpName(static_cast<ApiOp>(op))},
                                   {"phase", DispatchPhaseName(p)}};
      metrics_.AddHistogram(
          "tyche_dispatch_phase_latency_ns",
          "Per-phase dispatch latency (log2 buckets)", labels,
          [this, op16, p] { return profiler_.PhaseSnapshot(op16, p); });
      metrics_.AddCallback(
          "tyche_dispatch_phase_slowest_ns",
          "Slowest sample recorded for this (op, phase)", false, labels,
          [this, op16, p] { return profiler_.Exemplar(op16, p).ns; });
      metrics_.AddCallback(
          "tyche_dispatch_phase_slowest_span",
          "Dispatch span id of the slowest sample (joins the Chrome trace)", false,
          labels, [this, op16, p] { return profiler_.Exemplar(op16, p).span; });
      metrics_.AddCallback(
          "tyche_dispatch_phase_slowest_ts_ns",
          "Steady-clock timestamp of the slowest sample", false, labels,
          [this, op16, p] { return profiler_.Exemplar(op16, p).ts_ns; });
    }
  }
  metrics_.AddCallback("tyche_profiler_samples_total",
                       "Phase samples recorded by the dispatch profiler", true, {},
                       [this] { return profiler_.TotalSamples(); });

  // Attributed lock-wait time: measured at the guards (src/support/locking.h)
  // and the journal's group-commit waiter path, not inferred from counts.
  metrics_.AddCallback("tyche_lock_wait_ns_total",
                       "Nanoseconds spent blocked on contended conditional guards",
                       true, {{"class", "exclusive"}},
                       [this] { return telemetry_.exclusive_wait_ns()->Value(); });
  metrics_.AddCallback("tyche_lock_wait_ns_total",
                       "Nanoseconds spent blocked on contended conditional guards",
                       true, {{"class", "shared"}},
                       [this] { return telemetry_.shared_wait_ns()->Value(); });
  metrics_.AddCallback("tyche_lock_wait_ns_total",
                       "Nanoseconds spent blocked on contended conditional guards",
                       true, {{"class", "shard"}},
                       [this] { return telemetry_.shard_wait_ns()->Value(); });
  metrics_.AddCallback(
      "tyche_journal_commit_waits_total",
      "Group-commit appends that blocked waiting for a combiner", true, {},
      [this] { return audit_.journal().commit_wait_stats().waits; });
  metrics_.AddCallback(
      "tyche_journal_commit_wait_ns_total",
      "Nanoseconds spent blocked waiting for a group-commit combiner", true, {},
      [this] { return audit_.journal().commit_wait_stats().wait_ns; });

  // Invariant watchdog: per-invariant health (1 = holds), check/violation
  // totals, and the backend fail-safe occupancy the dirtiness check reads.
  metrics_.AddCallback("tyche_watchdog_healthy",
                       "1 while the named invariant holds, 0 after a violation",
                       false, {{"invariant", "journal_chain"}},
                       [this] { return watchdog_.chain_healthy() ? 1u : 0u; });
  metrics_.AddCallback("tyche_watchdog_healthy",
                       "1 while the named invariant holds, 0 after a violation",
                       false, {{"invariant", "owned_index"}},
                       [this] { return watchdog_.index_healthy() ? 1u : 0u; });
  metrics_.AddCallback("tyche_watchdog_healthy",
                       "1 while the named invariant holds, 0 after a violation",
                       false, {{"invariant", "backend_sync"}},
                       [this] { return watchdog_.backend_healthy() ? 1u : 0u; });
  metrics_.AddCallback("tyche_watchdog_checks_total",
                       "Invariant check rounds run by the watchdog", true, {},
                       [this] { return watchdog_.checks(); });
  metrics_.AddCallback("tyche_watchdog_violations_total",
                       "Invariant violations detected by the watchdog", true, {},
                       [this] { return watchdog_.violations(); });
  metrics_.AddCallback("tyche_backend_failsafe_active",
                       "Domains currently parked in the backend's fail-safe state",
                       false, {}, [this] { return backend_->failsafe_active(); });
}

MonitorStats Monitor::stats() const {
  MonitorStats stats;
  for (size_t op = 0; op < static_cast<size_t>(ApiOp::kOpCount); ++op) {
    stats.api_calls[op] = counters_.api_calls[op]->Value();
  }
  stats.transitions = counters_.transitions->Value();
  stats.fast_transitions = counters_.fast_transitions->Value();
  stats.revocations_cascaded = counters_.revocations_cascaded->Value();
  stats.recoveries = counters_.recoveries->Value();
  stats.shares = counters_.shares->Value();
  stats.grants = counters_.grants->Value();
  stats.revokes = counters_.revokes->Value();
  for (size_t kind = 0; kind < MonitorStats::kEffectKinds; ++kind) {
    stats.effects_by_kind[kind] = counters_.effects_by_kind[kind]->Value();
  }
  return stats;
}

void Monitor::ResetStatCounters() {
  for (StripedCounter* counter : counters_.api_calls) {
    counter->Reset();
  }
  counters_.transitions->Reset();
  counters_.fast_transitions->Reset();
  counters_.revocations_cascaded->Reset();
  counters_.recoveries->Reset();
  counters_.shares->Reset();
  counters_.grants->Reset();
  counters_.revokes->Reset();
  for (StripedCounter* counter : counters_.effects_by_kind) {
    counter->Reset();
  }
}

std::string Monitor::ExportMetrics() const {
  // Quiesce dispatchers: callback metrics read plain fields (backend stats,
  // domain table) that must not be mid-mutation.
  ConditionalUniqueLock api(api_mu_, concurrent_dispatch(), nullptr);
  return metrics_.ExportPrometheus();
}

uint64_t Monitor::TrapCost() const {
  const CostModel& cost = CostModel::Default();
  return machine_->arch() == IsaArch::kX86_64 ? cost.vmcall_round_trip
                                              : cost.smc_round_trip;
}

Status Monitor::ChargeCall(ApiOp op) {
  machine_->cycles().Charge(TrapCost());
  Count(counters_.api_calls[static_cast<size_t>(op)]);
  return OkStatus();
}

Status Monitor::EnableConcurrentDispatch() {
  if (snapshots_bound_) {
    // The snapshot provider runs under the journal lock and reads monitor
    // state; a concurrent dispatcher holding monitor locks while appending
    // would invert that order. Pick one: snapshots or concurrency.
    return Error(ErrorCode::kFailedPrecondition,
                 "concurrent dispatch is incompatible with bound snapshots");
  }
  if (migration_in_progress()) {
    // MigrateDomain() reads and mutates monitor state without the dispatch
    // locks (it runs serial-only by contract); flipping to concurrent mode
    // under it would race the staged commit.
    return Error(ErrorCode::kFailedPrecondition,
                 "concurrent dispatch cannot start during a live migration");
  }
  concurrent_.store(true, std::memory_order_relaxed);
  return OkStatus();
}

void Monitor::DisableConcurrentDispatch() {
  concurrent_.store(false, std::memory_order_relaxed);
}

uint64_t Monitor::BeginSpan(CoreId core) {
  const uint64_t span = next_span_.fetch_add(1, std::memory_order_relaxed);
  if (core < active_spans_.size()) {
    active_spans_[core] = span;
  }
  return span;
}

void Monitor::EndSpan(CoreId core) {
  if (core < active_spans_.size()) {
    active_spans_[core] = 0;
  }
}

uint64_t Monitor::SpanForCore(CoreId core) {
  if (core < active_spans_.size() && active_spans_[core] != 0) {
    return active_spans_[core];
  }
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

Result<DomainId> Monitor::Caller(CoreId core) const {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  const DomainId domain = machine_->cpu(core).current_domain();
  if (domain == kInvalidDomain || !domains_.contains(domain)) {
    return Error(ErrorCode::kFailedPrecondition, "no domain running on core");
  }
  if (domain_frozen(domain)) {
    return Error(ErrorCode::kMigrating, "caller is frozen by a live migration");
  }
  return domain;
}

Result<DomainId> Monitor::ResolveHandle(DomainId caller, CapId handle,
                                        bool require_manage) const {
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, engine_.Get(handle));
  if (!cap->active()) {
    return Error(ErrorCode::kCapabilityRevoked, "domain handle revoked");
  }
  if (cap->owner != caller) {
    return Error(ErrorCode::kCapabilityNotOwned, "domain handle not owned by caller");
  }
  if (cap->kind != ResourceKind::kDomain) {
    return Error(ErrorCode::kInvalidArgument, "capability is not a domain handle");
  }
  if (require_manage && !cap->rights.CanManage()) {
    return Error(ErrorCode::kCapabilityRightsViolation, "handle lacks manage right");
  }
  const DomainId target = static_cast<DomainId>(cap->unit);
  const auto it = domains_.find(target);
  if (it == domains_.end() || !it->second.alive()) {
    return Error(ErrorCode::kDomainDead, "target domain not alive");
  }
  if (domain_frozen(target)) {
    return Error(ErrorCode::kMigrating, "target is frozen by a live migration");
  }
  return target;
}

Result<TrustDomain*> Monitor::GetDomainMutable(DomainId id) {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "no such domain");
  }
  return &it->second;
}

Result<const TrustDomain*> Monitor::GetDomain(DomainId id) const {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "no such domain");
  }
  return &it->second;
}

DomainId Monitor::CurrentDomain(CoreId core) const {
  return machine_->cpu(core).current_domain();
}

uint64_t Monitor::num_domains_alive() const {
  uint64_t count = 0;
  for (const auto& [id, domain] : domains_) {
    if (domain.alive()) {
      ++count;
    }
  }
  return count;
}

Result<DomainId> Monitor::InstallInitialDomain(const std::string& name) {
  if (next_domain_ != 0) {
    return Error(ErrorCode::kFailedPrecondition, "initial domain already installed");
  }
  const DomainId id = next_domain_++;
  TrustDomain& domain = domains_[id];
  domain.id = id;
  domain.creator = kInvalidDomain;
  domain.name = name;
  domain.asid = next_asid_++;
  domain.entry_point = 0;
  domain.entry_point_set = true;

  const uint64_t span = next_span_.fetch_add(1, std::memory_order_relaxed);
  engine_.RegisterDomain(id, CapabilityEngine::kNoCreator);
  audit_.RegisterDomain(span, id, kJournalNoDomain);
  TYCHE_RETURN_IF_ERROR(backend_->CreateDomainContext(id, domain.asid));

  // Endow the initial domain with everything outside the monitor.
  const AddrRange rest{monitor_range_.end(),
                       machine_->memory().size() - monitor_range_.end()};
  CapEffects effects;
  TYCHE_ASSIGN_OR_RETURN(
      const CapId mem_cap,
      engine_.MintMemory(id, rest, Perms(Perms::kRWX), CapRights(CapRights::kAll)));
  audit_.MintMemory(span, id, mem_cap, rest, Perms(Perms::kRWX), CapRights(CapRights::kAll));
  effects.Add(CapEffect{CapEffect::Kind::kMapMemory, id, ResourceKind::kMemory, rest, 0,
                        Perms(Perms::kRWX)});
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    TYCHE_ASSIGN_OR_RETURN(
        const CapId core_cap,
        engine_.MintUnit(id, ResourceKind::kCpuCore, core, CapRights(CapRights::kAll)));
    audit_.MintUnit(span, id, core_cap, ResourceKind::kCpuCore, core,
                    CapRights(CapRights::kAll));
  }
  for (const auto& device : machine_->devices()) {
    TYCHE_ASSIGN_OR_RETURN(const CapId dev_cap,
                           engine_.MintUnit(id, ResourceKind::kPciDevice,
                                            device->bdf().value, CapRights(CapRights::kAll)));
    audit_.MintUnit(span, id, dev_cap, ResourceKind::kPciDevice, device->bdf().value,
                    CapRights(CapRights::kAll));
    effects.Add(CapEffect{CapEffect::Kind::kAttachUnit, id, ResourceKind::kPciDevice,
                          AddrRange{}, device->bdf().value, Perms{}});
  }
  TYCHE_RETURN_IF_ERROR(ApplyEffects(effects, span));

  // Put the initial domain on every core.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    machine_->cpu(core).set_current_domain(id);
    machine_->cpu(core).set_mode(PrivilegeMode::kSupervisor);
    TYCHE_RETURN_IF_ERROR(backend_->BindCore(id, core));
  }
  return id;
}

Status Monitor::ApplyEffects(const CapEffects& effects, uint64_t span) {
  // Best-effort over the WHOLE list: revocation cleanups are guaranteed
  // (§3.2), so one failing projection (e.g. a PMP layout that stopped
  // fitting -- which fail-safes to deny-all) must not prevent the remaining
  // unmaps, zeroing, and restores. The first error is still reported so
  // policy operations can compensate.
  Status first_error = OkStatus();
  auto note = [&first_error](const Status& status) {
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  };
  for (const CapEffect& effect : effects.effects) {
    const auto kind_index = static_cast<size_t>(effect.kind);
    if (kind_index < MonitorStats::kEffectKinds) {
      Count(counters_.effects_by_kind[kind_index]);
    }
    audit_.Effect(span, effect);
    switch (effect.kind) {
      case CapEffect::Kind::kMapMemory:
      case CapEffect::Kind::kUnmapMemory:
        note(backend_->SyncMemory(effect.domain, effect.range));
        break;
      case CapEffect::Kind::kZeroMemory:
        note(machine_->ZeroRange(effect.range.base, effect.range.size));
        break;
      case CapEffect::Kind::kFlushCache:
        machine_->FlushCacheRange(effect.range.base, effect.range.size);
        break;
      case CapEffect::Kind::kAttachUnit:
      case CapEffect::Kind::kDetachUnit:
        if (effect.resource == ResourceKind::kPciDevice) {
          note(ReconcileDevice(effect.unit));
        }
        // Core and domain-handle movements need no hardware action: cores
        // are checked at transition time, handles are pure bookkeeping.
        break;
    }
  }
  return first_error;
}

Status Monitor::ReconcileDevice(uint64_t bdf) {
  // A device DMAs on behalf of exactly one trust domain: it is attached iff
  // a single domain holds its capability; shared devices are quiesced.
  DomainId sole_holder = kInvalidDomain;
  uint32_t holders = 0;
  for (const auto& [id, domain] : domains_) {
    if (domain.alive() && engine_.HasUnit(id, ResourceKind::kPciDevice, bdf)) {
      ++holders;
      sole_holder = id;
    }
  }
  // Detach from everyone first. kNotFound just means "was not attached"
  // (the common case); any other failure is a device that refused to
  // quiesce and must be surfaced to the enclosing operation.
  Status first_error = OkStatus();
  for (const auto& [id, domain] : domains_) {
    if (!domain.alive()) {
      continue;
    }
    const Status detached = backend_->DetachDevice(id, static_cast<uint16_t>(bdf));
    if (!detached.ok() && detached.code() != ErrorCode::kNotFound && first_error.ok()) {
      first_error = detached;
    }
  }
  // Interrupt routes follow exclusive ownership: a route pointing anywhere
  // but the sole holder is torn down.
  const auto route = machine_->interrupts().RouteOf(PciBdf(static_cast<uint16_t>(bdf)));
  if (route.has_value() && (holders != 1 || *route != sole_holder)) {
    machine_->interrupts().Unroute(PciBdf(static_cast<uint16_t>(bdf)));
  }
  if (holders == 1) {
    const Status attached = backend_->AttachDevice(sole_holder, static_cast<uint16_t>(bdf));
    if (!attached.ok() && first_error.ok()) {
      first_error = attached;
    }
  }
  return first_error;
}

Status Monitor::RollbackTransfer(ApiOp op, uint64_t span, DomainId requester,
                                 DomainId owner, CapId created, const Status& cause) {
  // The forward mutation is already journaled; revoking the created
  // capability as its owner (a domain may always drop what it holds) emits
  // the compensating records, so shadow replay performs the same
  // compensation and the graphs converge.
  const auto comp = engine_.Revoke(owner, created);
  if (!comp.ok()) {
    // Unreachable unless the engine lost the capability underneath us; the
    // abort record below still marks the span as failed.
    TYCHE_LOG(kError) << "rollback: revoke of cap " << created
                      << " failed: " << comp.status().ToString();
  } else {
    audit_.Revoke(span, owner, created, *comp, engine_);
    Count(counters_.revocations_cascaded, comp->revoked_count);
    const Status reverted = ApplyEffects(comp->effects, span);
    if (!reverted.ok()) {
      // The compensation itself could not be fully projected: the failing
      // backend has already fail-safed to deny, so hardware still enforces
      // a subset of the (now restored) tree.
      TYCHE_LOG(kWarn) << "rollback: compensating effects degraded to fail-safe: "
                       << reverted.ToString();
    }
  }
  audit_.Abort(span, static_cast<uint16_t>(op), requester, cause.code());
  return cause;
}

Status Monitor::RouteInterrupt(CoreId core, CapId device_cap) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRouteInterrupt));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, engine_.Get(device_cap));
  if (!cap->active() || cap->owner != caller) {
    return Error(ErrorCode::kCapabilityNotOwned, "route: caller does not hold the device");
  }
  if (cap->kind != ResourceKind::kPciDevice) {
    return Error(ErrorCode::kInvalidArgument, "route: not a device capability");
  }
  // Routing requires exclusive ownership: interrupts carry information, so
  // a shared device must not leak its completion pattern to one holder.
  if (engine_.UnitRefCount(ResourceKind::kPciDevice, cap->unit) != 1) {
    return Error(ErrorCode::kPolicyViolation, "route: device is not exclusively owned");
  }
  machine_->interrupts().Route(PciBdf(static_cast<uint16_t>(cap->unit)), caller);
  return OkStatus();
}

Result<Interrupt> Monitor::TakeInterrupt(CoreId core) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kTakeInterrupt));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  const auto interrupt = machine_->interrupts().Take(caller);
  if (!interrupt.has_value()) {
    return Error(ErrorCode::kNotFound, "no pending interrupt");
  }
  return *interrupt;
}

Status Monitor::SetTransitionPolicy(CoreId core, CapId domain_handle, bool scrub_on_exit) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSetTransitionPolicy));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "transition policy is fixed at seal time");
  }
  domain->scrub_on_exit = scrub_on_exit;
  return OkStatus();
}

Result<CreateDomainResult> Monitor::CreateDomain(CoreId core, const std::string& name) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kCreateDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));

  const DomainId id = next_domain_++;
  TrustDomain& domain = domains_[id];
  domain.id = id;
  domain.creator = caller;
  domain.name = name;
  domain.asid = next_asid_++;

  const uint64_t span = SpanForCore(core);
  engine_.RegisterDomain(id, caller);
  audit_.RegisterDomain(span, id, caller);
  const Status context = backend_->CreateDomainContext(id, domain.asid);
  if (!context.ok()) {
    // Unwind: a domain the backend cannot enforce must not stay registered.
    // The purge is journaled like any other mutation so shadow replay stays
    // in lockstep; the id is simply never reused (next_domain_ moved on).
    const auto purge = engine_.PurgeDomain(id);
    if (purge.ok()) {
      audit_.PurgeDomain(span, id, *purge, engine_);
    }
    domains_.erase(id);
    audit_.Abort(span, static_cast<uint16_t>(ApiOp::kCreateDomain), caller, context.code());
    return context;
  }

  TYCHE_ASSIGN_OR_RETURN(
      const CapId handle,
      engine_.MintUnit(caller, ResourceKind::kDomain, id, CapRights(CapRights::kAll)));
  audit_.MintUnit(span, caller, handle, ResourceKind::kDomain, id, CapRights(CapRights::kAll));
  return CreateDomainResult{id, handle};
}

Status Monitor::SetEntryPoint(CoreId core, CapId domain_handle, uint64_t entry) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSetEntryPoint));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "cannot move a sealed domain's entry point");
  }
  domain->entry_point = entry;
  domain->entry_point_set = true;
  return OkStatus();
}

Status Monitor::ExtendMeasurement(CoreId core, CapId domain_handle, AddrRange range) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kExtendMeasurement));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "measurement already finalized");
  }
  // The measured range must belong to the target (readable by it): the
  // measurement covers the domain's own initial content.
  for (uint64_t page = AlignDown(range.base, kPageSize); page < range.end();
       page += kPageSize) {
    if (!engine_.EffectivePerms(target, page).Allows(AccessType::kRead)) {
      return Error(ErrorCode::kPolicyViolation, "measured range not owned by target");
    }
  }
  TYCHE_ASSIGN_OR_RETURN(const Digest digest,
                         machine_->MeasureRange(range.base, range.size));
  domain->measurement_ctx.UpdateValue(range.base);
  domain->measurement_ctx.UpdateValue(range.size);
  domain->measurement_ctx.Update(
      std::span<const uint8_t>(digest.bytes.data(), digest.bytes.size()));
  return OkStatus();
}

Status Monitor::Seal(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSeal));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "already sealed");
  }
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kFailedPrecondition, "seal requires an entry point");
  }
  // The entry point must be executable by the domain.
  if (!engine_.EffectivePerms(target, domain->entry_point).Allows(AccessType::kExecute)) {
    return Error(ErrorCode::kPolicyViolation, "entry point not executable by domain");
  }

  // Finalize measurement with the configuration hash: entry point plus the
  // canonical resource list (kind, range, perms). This is what makes the
  // attested identity cover the isolation configuration, not just code.
  domain->measurement_ctx.Update(std::string_view("tyche-config-v1"));
  domain->measurement_ctx.UpdateValue(domain->entry_point);
  std::vector<const Capability*> caps = engine_.DomainCaps(target);
  std::sort(caps.begin(), caps.end(), [](const Capability* a, const Capability* b) {
    return std::tuple(a->kind, a->range.base, a->range.size, a->unit) <
           std::tuple(b->kind, b->range.base, b->range.size, b->unit);
  });
  for (const Capability* cap : caps) {
    domain->measurement_ctx.UpdateValue(static_cast<uint8_t>(cap->kind));
    domain->measurement_ctx.UpdateValue(cap->range.base);
    domain->measurement_ctx.UpdateValue(cap->range.size);
    domain->measurement_ctx.UpdateValue(cap->unit);
    domain->measurement_ctx.UpdateValue(cap->perms.mask);
  }
  domain->measurement = domain->measurement_ctx.Finalize();
  domain->state = DomainState::kSealed;
  engine_.SealDomain(target);
  audit_.SealDomain(SpanForCore(core), target, domain->measurement, domain->entry_point);
  return OkStatus();
}

Status Monitor::DestroyDomain(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kDestroyDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  // Refuse while the domain is on a core or present in a return stack.
  for (CoreId c = 0; c < machine_->num_cores(); ++c) {
    if (machine_->cpu(c).current_domain() == target) {
      return Error(ErrorCode::kFailedPrecondition, "domain is running");
    }
    const auto& stack = call_stacks_[c];
    if (std::find(stack.begin(), stack.end(), target) != stack.end()) {
      return Error(ErrorCode::kFailedPrecondition, "domain is on a transition stack");
    }
  }
  return PurgeCommit(target, SpanForCore(core), ApiOp::kDestroyDomain, caller,
                     /*committed=*/false);
}

Status Monitor::PurgeCommit(DomainId target, uint64_t span, ApiOp op, DomainId requester,
                            bool committed) {
  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  const auto purged = engine_.PurgeDomain(target, &partial);
  Status first = OkStatus();
  if (!purged.ok()) {
    // The purge aborted mid-cascade: the domain is still registered, but the
    // per-root revocations that DID commit are real. Journal each as an
    // ordinary revoke (the target owns its own roots, so replay
    // authorization holds) and project its effects so hardware tracks the
    // tree. A retry purges whatever remains; its kPurgeDomain record then
    // replays against the same remainder.
    for (const auto& [root, done] : partial) {
      audit_.Revoke(span, target, root, done, engine_);
      Count(counters_.revocations_cascaded, done.revoked_count);
      const Status projected = ApplyEffects(done.effects, span);
      if (!projected.ok()) {
        TYCHE_LOG(kWarn) << "purge: partial-purge effects degraded to fail-safe: "
                         << projected.ToString();
      }
    }
    first = purged.status();
  } else {
    audit_.PurgeDomain(span, target, *purged, engine_);
    Count(counters_.revocations_cascaded, purged->revoked_count);
    first = ApplyEffects(purged->effects, span);
  }
  // A successful purge -- or any purge of a committed handoff -- is the
  // commit point: teardown is never rolled back, because a dead domain with
  // live hardware state would be the worst torn state of all. Push through
  // every cleanup step (failed projections have already fail-safed to
  // deny), mark the domain dead, and report the first failure as a
  // terminal-but-contained error.
  if (purged.ok() || committed) {
    const Status context = backend_->DestroyDomainContext(target);
    if (!context.ok() && first.ok()) {
      first = context;
    }
    machine_->interrupts().PurgeDomain(target);
    domains_.at(target).state = DomainState::kDead;
  }
  if (!first.ok()) {
    audit_.Abort(span, static_cast<uint16_t>(op), requester, first.code());
  }
  return first;
}

Result<GrantOutcome> Monitor::Transfer(ApiOp op, CoreId core, CapId src_cap,
                                      CapId dst_domain_handle, AddrRange sub, Perms perms,
                                      CapRights rights, RevocationPolicy policy) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(op));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId dst,
                         ResolveHandle(caller, dst_domain_handle, /*require_manage=*/false));
  const uint64_t span = SpanForCore(core);
  GrantOutcome outcome;
  if (op == ApiOp::kShareMemory) {
    TYCHE_ASSIGN_OR_RETURN(outcome.granted,
                           engine_.ShareMemory(caller, src_cap, dst, sub, perms, rights,
                                               policy, &outcome.effects));
  } else if (op == ApiOp::kShareUnit) {
    TYCHE_ASSIGN_OR_RETURN(outcome.granted, engine_.ShareUnit(caller, src_cap, dst, rights,
                                                              policy, &outcome.effects));
  } else if (op == ApiOp::kGrantMemory) {
    TYCHE_ASSIGN_OR_RETURN(
        outcome, engine_.GrantMemory(caller, src_cap, dst, sub, perms, rights, policy));
  } else {
    TYCHE_ASSIGN_OR_RETURN(outcome, engine_.GrantUnit(caller, src_cap, dst, rights, policy));
  }
  audit_.Transfer(span, caller, outcome, engine_);
  const Status applied = ApplyEffects(outcome.effects, span);
  if (!applied.ok()) {
    // Compensate: the hardware could not accommodate the new mapping (e.g.
    // PMP exhaustion); roll the capability back so tree and hardware agree.
    return RollbackTransfer(op, span, caller, dst, outcome.granted, applied);
  }
  const bool grant = op == ApiOp::kGrantMemory || op == ApiOp::kGrantUnit;
  Count(grant ? counters_.grants : counters_.shares);
  return outcome;
}

Result<CapId> Monitor::ShareMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                   AddrRange sub, Perms perms, CapRights rights,
                                   RevocationPolicy policy) {
  TYCHE_ASSIGN_OR_RETURN(const GrantOutcome outcome,
                         Transfer(ApiOp::kShareMemory, core, src_cap, dst_domain_handle, sub,
                                  perms, rights, policy));
  return outcome.granted;
}

Result<GrantResult> Monitor::GrantMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                         AddrRange sub, Perms perms, CapRights rights,
                                         RevocationPolicy policy) {
  TYCHE_ASSIGN_OR_RETURN(GrantOutcome outcome,
                         Transfer(ApiOp::kGrantMemory, core, src_cap, dst_domain_handle, sub,
                                  perms, rights, policy));
  return GrantResult{outcome.granted, std::move(outcome.remainders)};
}

Result<CapId> Monitor::ShareUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                 CapRights rights, RevocationPolicy policy) {
  TYCHE_ASSIGN_OR_RETURN(const GrantOutcome outcome,
                         Transfer(ApiOp::kShareUnit, core, src_cap, dst_domain_handle, {}, {},
                                  rights, policy));
  return outcome.granted;
}

Result<CapId> Monitor::GrantUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                 CapRights rights, RevocationPolicy policy) {
  TYCHE_ASSIGN_OR_RETURN(const GrantOutcome outcome,
                         Transfer(ApiOp::kGrantUnit, core, src_cap, dst_domain_handle, {}, {},
                                  rights, policy));
  return outcome.granted;
}

Status Monitor::Revoke(CoreId core, CapId cap) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRevoke));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  const uint64_t span = SpanForCore(core);
  TYCHE_ASSIGN_OR_RETURN(const RevokeOutcome outcome, engine_.Revoke(caller, cap));
  audit_.Revoke(span, caller, cap, outcome, engine_);
  Count(counters_.revokes);
  Count(counters_.revocations_cascaded, outcome.revoked_count);
  const Status applied = ApplyEffects(outcome.effects, span);
  if (!applied.ok()) {
    // Revocation is never rolled back (§3.2: cleanups are guaranteed). The
    // failing projection already fail-safed to deny, so hardware enforces a
    // subset of the tree; the abort record plus the typed error tell the
    // caller the degraded state is theirs to repair (any later successful
    // sync restores full enforcement).
    audit_.Abort(span, static_cast<uint16_t>(ApiOp::kRevoke), caller, applied.code());
  }
  return applied;
}

Result<DomainAttestation> Monitor::BuildAttestation(DomainId target, uint64_t nonce) {
  ConditionalSharedLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  DomainAttestation report;
  report.domain = target;
  report.nonce = nonce;
  report.sealed = domain->sealed();
  report.measurement = domain->measurement;

  std::vector<const Capability*> caps = engine_.DomainCaps(target);
  std::sort(caps.begin(), caps.end(), [](const Capability* a, const Capability* b) {
    return std::tuple(a->kind, a->range.base, a->range.size, a->unit) <
           std::tuple(b->kind, b->range.base, b->range.size, b->unit);
  });
  // Memory claims are reported at constant-refcount granularity (the
  // resolution of the paper's Figure 4): a capability spanning both private
  // and shared bytes is split, so a verifier's per-region policy can tell
  // the attested channel from the private heap around it.
  const std::vector<RegionView> view = engine_.MemoryView();
  for (const Capability* cap : caps) {
    if (cap->kind != ResourceKind::kMemory) {
      ResourceClaim claim;
      claim.kind = cap->kind;
      claim.unit = cap->unit;
      claim.ref_count = engine_.UnitRefCount(cap->kind, cap->unit);
      report.resources.push_back(claim);
      continue;
    }
    for (const RegionView& region : view) {
      if (!region.range.Overlaps(cap->range)) {
        continue;
      }
      ResourceClaim claim;
      claim.kind = ResourceKind::kMemory;
      claim.range.base = std::max(region.range.base, cap->range.base);
      claim.range.size =
          std::min(region.range.end(), cap->range.end()) - claim.range.base;
      claim.perms = cap->perms;
      claim.ref_count = region.ref_count();
      report.resources.push_back(claim);
    }
  }
  report.report_digest = report.ComputeDigest();
  report.signature = SchnorrSign(key_.priv, report.report_digest);
  machine_->cycles().Charge(CostModel::Default().sign);
  return report;
}

Result<DomainAttestation> Monitor::AttestDomain(CoreId core, CapId domain_handle,
                                                uint64_t nonce) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kAttestDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  return BuildAttestation(target, nonce);
}

Result<DomainAttestation> Monitor::AttestSelf(CoreId core, uint64_t nonce) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kAttestDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  return BuildAttestation(caller, nonce);
}

Result<std::vector<ResourceClaim>> Monitor::Enumerate(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kEnumerate));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const DomainAttestation report, BuildAttestation(target, 0));
  return report.resources;
}

Status Monitor::Transition(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kTransition));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kTransitionDenied, "target has no entry point");
  }
  // §3.1: "Domains ... are only allowed to run on CPU cores ... that are
  // part of their resource configuration."
  if (!engine_.HasUnit(target, ResourceKind::kCpuCore, core)) {
    return Error(ErrorCode::kTransitionDenied, "target does not own this core");
  }
  ScrubOnExitIfRequested(caller, core);
  // Bind first: if the backend refuses the switch, the call stack and the
  // core's current domain must still describe the caller, not the target.
  TYCHE_RETURN_IF_ERROR(backend_->BindCore(target, core));
  call_stacks_[core].push_back(caller);
  machine_->cpu(core).set_current_domain(target);
  Count(counters_.transitions);
  return OkStatus();
}

void Monitor::ScrubOnExitIfRequested(DomainId leaving, CoreId core) {
  const auto it = domains_.find(leaving);
  if (it == domains_.end() || !it->second.scrub_on_exit) {
    return;
  }
  // Wipe the micro-architectural state the domain may have left behind:
  // TLB entries plus (modelled) caches and predictors.
  machine_->FlushTlb(core);
  machine_->cycles().Charge(CostModel::Default().microarch_scrub);
}

Status Monitor::ReturnFromDomain(CoreId core) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kReturn));
  TYCHE_RETURN_IF_ERROR(Caller(core).status());
  if (call_stacks_[core].empty()) {
    return Error(ErrorCode::kFailedPrecondition, "no domain to return to");
  }
  const DomainId leaving = machine_->cpu(core).current_domain();
  ScrubOnExitIfRequested(leaving, core);
  const DomainId previous = call_stacks_[core].back();
  // Bind first (see Transition): a refused switch leaves the stack intact.
  TYCHE_RETURN_IF_ERROR(backend_->BindCore(previous, core));
  call_stacks_[core].pop_back();
  machine_->cpu(core).set_current_domain(previous);
  Count(counters_.transitions);
  return OkStatus();
}

Status Monitor::RegisterFastTransition(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRegisterFastTransition));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kTransitionDenied, "target has no entry point");
  }
  if (!engine_.HasUnit(target, ResourceKind::kCpuCore, core)) {
    return Error(ErrorCode::kTransitionDenied, "target does not own this core");
  }
  // The fast path bypasses the monitor, so it cannot honour a scrub-on-exit
  // policy: domains that asked for the mitigation are excluded.
  if (domains_[caller].scrub_on_exit || domains_[target].scrub_on_exit) {
    return Error(ErrorCode::kPolicyViolation,
                 "scrub-on-exit domains cannot use the unmediated fast path");
  }
  // Arm the fast path both ways so the pair can call and return.
  TYCHE_RETURN_IF_ERROR(backend_->RegisterFastPath(target, core));
  return backend_->RegisterFastPath(caller, core);
}

Status Monitor::FastTransition(CoreId core, DomainId target) {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  // The fast path bypasses handle resolution, so the frozen check must live
  // here: entering a half-captured domain would let it observe (and dirty)
  // state the migration already serialized.
  if (domain_frozen(target)) {
    return Error(ErrorCode::kMigrating, "target is frozen by a live migration");
  }
  // No trap: the hardware validates against the pre-armed EPTP list. Only
  // the VMFUNC-equivalent cost is charged.
  machine_->cycles().Charge(CostModel::Default().vmfunc_switch);
  Count(counters_.api_calls[static_cast<size_t>(ApiOp::kFastTransition)]);
  const DomainId caller = machine_->cpu(core).current_domain();
  TYCHE_RETURN_IF_ERROR(backend_->FastBindCore(target, core));
  call_stacks_[core].push_back(caller);
  machine_->cpu(core).set_current_domain(target);
  Count(counters_.fast_transitions);
  return OkStatus();
}

Status Monitor::FastReturn(CoreId core) {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  machine_->cycles().Charge(CostModel::Default().vmfunc_switch);
  if (call_stacks_[core].empty()) {
    return Error(ErrorCode::kFailedPrecondition, "no domain to return to");
  }
  const DomainId previous = call_stacks_[core].back();
  TYCHE_RETURN_IF_ERROR(backend_->FastBindCore(previous, core));
  call_stacks_[core].pop_back();
  machine_->cpu(core).set_current_domain(previous);
  Count(counters_.fast_transitions);
  return OkStatus();
}

Result<std::vector<uint8_t>> Monitor::SealData(CoreId core, std::span<const uint8_t> data) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSealData));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  ConditionalSharedLock shard(ShardFor(caller), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(caller));
  if (!domain->sealed()) {
    return Error(ErrorCode::kDomainNotSealed,
                 "sealing requires a final measurement (seal the domain first)");
  }
  const Digest key =
      HmacSha256(std::span<const uint8_t>(sealing_root_.bytes.data(), 32),
                 std::span<const uint8_t>(domain->measurement.bytes.data(), 32));
  // NOTE: the per-boot nonce counter is enough here because the simulation
  // has no persistent storage; a production monitor must persist or
  // randomize nonces to avoid cross-boot reuse.
  const SealedBlob blob = AeadSeal(key, seal_nonce_++, data);
  machine_->cycles().Charge(CostModel::Default().hash_per_page *
                            (AlignUp(data.size(), kPageSize) / kPageSize + 1));
  return blob.Serialize();
}

Result<std::vector<uint8_t>> Monitor::UnsealData(CoreId core,
                                                 std::span<const uint8_t> blob_bytes) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kUnsealData));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  ConditionalSharedLock shard(ShardFor(caller), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(caller));
  if (!domain->sealed()) {
    return Error(ErrorCode::kDomainNotSealed, "unsealing requires a final measurement");
  }
  TYCHE_ASSIGN_OR_RETURN(const SealedBlob blob, SealedBlob::Deserialize(blob_bytes));
  const Digest key =
      HmacSha256(std::span<const uint8_t>(sealing_root_.bytes.data(), 32),
                 std::span<const uint8_t>(domain->measurement.bytes.data(), 32));
  machine_->cycles().Charge(CostModel::Default().hash_per_page *
                            (AlignUp(blob.ciphertext.size(), kPageSize) / kPageSize + 1));
  return AeadOpen(key, blob);
}

Result<MonitorIdentity> Monitor::Identity(uint64_t nonce) const {
  MonitorIdentity identity;
  identity.tpm_key = machine_->tpm().attestation_key();
  identity.monitor_key = key_.pub;
  identity.firmware_measurement = firmware_measurement_;
  identity.monitor_measurement = monitor_measurement_;
  const uint32_t mask = (1u << Tpm::kPcrFirmware) | (1u << Tpm::kPcrMonitor);
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote, machine_->tpm().Quote(nonce, mask));
  return identity;
}

Result<bool> Monitor::AuditHardwareConsistency() {
  for (const auto& [id, domain] : domains_) {
    if (!domain.alive()) {
      continue;
    }
    TYCHE_ASSIGN_OR_RETURN(const bool consistent, backend_->ValidateAgainst(engine_, id));
    if (!consistent) {
      TYCHE_LOG(kError) << "hardware state of domain " << id
                        << " is not justified by the capability tree";
      return false;
    }
  }
  return true;
}

}  // namespace tyche

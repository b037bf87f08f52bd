// Copyright 2026 The Tyche Reproduction Authors.
// Platform backend interface (§4: "a platform-specific backend ...
// configures commodity hardware mechanisms to enforce the desired
// policies"). The capability engine produces effect lists; a backend
// projects them onto real enforcement state: nested page tables + IOMMU on
// the VT-x machine, PMP files + IOPMP on the RISC-V machine.

#ifndef SRC_MONITOR_BACKEND_H_
#define SRC_MONITOR_BACKEND_H_

#include <atomic>
#include <cstdint>

#include "src/capability/engine.h"
#include "src/hw/cpu.h"
#include "src/support/status.h"

namespace tyche {

// What the enforcement hardware actually did on the monitor's behalf.
// Maintained by every backend; read through Backend::stats() and exported as
// tyche_backend_ops_total by Monitor::ExportMetrics(), so the cost of
// projecting policy onto hardware is observable per deployment.
struct BackendStats {
  uint64_t memory_syncs = 0;      // SyncMemory invocations
  uint64_t pages_mapped = 0;      // EPT pages installed (VT-x)
  uint64_t pages_unmapped = 0;    // EPT pages removed (VT-x)
  uint64_t pages_protected = 0;   // EPT permission rewrites (VT-x)
  uint64_t pmp_recompiles = 0;    // full PMP program recompilations (RISC-V)
  uint64_t pmp_entry_writes = 0;  // PMP/IOPMP entry register writes (RISC-V)
  uint64_t tlb_shootdowns = 0;    // TLB flushes issued to cores
  uint64_t iommu_updates = 0;     // device attach/detach reprogramming
  uint64_t core_binds = 0;        // slow-path protection-context switches
  uint64_t fast_binds = 0;        // VMFUNC-style fast switches
};

class Backend {
 public:
  virtual ~Backend() = default;

  // Allocates per-domain enforcement state (e.g. an empty EPT).
  virtual Status CreateDomainContext(DomainId domain, uint16_t asid) = 0;
  virtual Status DestroyDomainContext(DomainId domain) = 0;

  // Re-derives the enforcement state for `domain` over `range` from the
  // capability engine (the single source of truth). Idempotent; called
  // after every capability mutation that touches the domain.
  virtual Status SyncMemory(DomainId domain, const AddrRange& range) = 0;

  // Attaches / detaches a PCI device to a domain's protection context.
  virtual Status AttachDevice(DomainId domain, uint16_t bdf) = 0;
  virtual Status DetachDevice(DomainId domain, uint16_t bdf) = 0;

  // Installs domain's protection context on a core (slow path: full switch
  // with TLB flush where the hardware requires it).
  virtual Status BindCore(DomainId domain, CoreId core) = 0;

  // Fast-transition support (VMFUNC EPTP-list style). Returns
  // kUnimplemented where the hardware has no fast path (PMP).
  virtual Status RegisterFastPath(DomainId domain, CoreId core) = 0;
  virtual Status FastBindCore(DomainId domain, CoreId core) = 0;

  // Flushes stale translations for a domain after revocation. `cores_mask`
  // selects the cores currently running the domain.
  virtual void FlushDomain(DomainId domain) = 0;

  // True if every mapping the hardware would honour for `domain` is
  // justified by an active capability -- the judiciary-facing consistency
  // check used by tests and the self-audit.
  virtual Result<bool> ValidateAgainst(const CapabilityEngine& engine, DomainId domain) = 0;

  virtual const char* name() const = 0;

  const BackendStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BackendStats{}; }

  // Fail-safe occupancy: domains currently parked in this backend's
  // fail-safe state (VT-x degraded hull / PMP deny-all). Maintained with
  // relaxed atomics at the fail-safe transitions so the invariant watchdog
  // can read "backend sync dirtiness" without taking any monitor lock.
  uint64_t failsafe_active() const {
    return failsafe_active_.load(std::memory_order_relaxed);
  }

 protected:
  void NoteFailsafeEntered() {
    failsafe_active_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteFailsafeCleared() {
    failsafe_active_.fetch_sub(1, std::memory_order_relaxed);
  }

  BackendStats stats_;
  std::atomic<uint64_t> failsafe_active_{0};
};

}  // namespace tyche

#endif  // SRC_MONITOR_BACKEND_H_

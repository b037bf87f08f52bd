// Copyright 2026 The Tyche Reproduction Authors.
// The fault-sweep harness shared by the fault, crash, migration and fleet
// sweeps. A sweep brings its scenario -- a world, a workload, the invariants
// every trial must hold, and the sites its clean run must reach -- and this
// header brings the mechanics:
//
//   CountSites              one clean pass in counting mode, filtered to the
//                           sites the sweep owns (Sweepable or Prefixed)
//   ExpectReached           the clean pass reached every required site
//   ForEachFirstMiddleLast  one trial per site at its first / middle / last
//                           occurrence
//   Soak                    seeded random (site, occurrence) trials,
//                           replayable with TYCHE_FAULT_SEED
//   ExpectFiredOnce         the armed plan delivered exactly one fault
//   Call                    one Dispatch() with the ABI registers filled in
//   ExpectHardwareAndJournalSound
//                           hardware agrees with the capability tree and the
//                           exported journal verifies against the live graph
//
// Every grid and soak prints one count line,
// `[ sweep ] <sweep>/<part> arch=<x86_64|riscv> sites=N trials=M`, so the
// size of each sweep is visible in the test log.

#ifndef TESTS_TESTING_SWEEP_H_
#define TESTS_TESTING_SWEEP_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/support/faults.h"

namespace tyche::sweep {

// Per-site occurrence counts of one clean pass.
using SiteCounts = std::map<std::string, uint64_t>;
using SiteFilter = std::function<bool(std::string_view)>;

// Keeps the enumerable, error-surfacing sites of AllFaultSites(). It drops
// the silent-corruption sites (journal.head_tamper, engine.owned_desync):
// they corrupt state without failing the operation, so no typed error ever
// surfaces and only the invariant watchdog notices them
// (tests/monitor/watchdog_test.cc).
inline bool Sweepable(std::string_view site) {
  const auto& sites = AllFaultSites();
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

// Keeps the sites whose name starts with one of `prefixes`: the sites a
// sweep owns when the sites it also crosses have a sweep of their own.
inline SiteFilter Prefixed(std::vector<std::string_view> prefixes) {
  return [prefixes = std::move(prefixes)](std::string_view site) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [site](std::string_view prefix) { return site.starts_with(prefix); });
  };
}

// Runs `run` once with every site observing but never failing, and returns
// how often it reached each site that `keep` accepts.
template <typename Run>
SiteCounts CountSites(Run&& run, const SiteFilter& keep) {
  FaultInjector::Instance().StartCounting();
  run();
  SiteCounts counts = FaultInjector::Instance().StopCounting();
  std::erase_if(counts, [&keep](const auto& entry) { return !keep(entry.first); });
  return counts;
}

inline void ExpectReached(const SiteCounts& counts,
                          const std::vector<std::string_view>& required) {
  for (const std::string_view site : required) {
    const auto it = counts.find(std::string(site));
    EXPECT_TRUE(it != counts.end() && it->second > 0) << "clean run never reached " << site;
  }
}

inline void ExpectFiredOnce(const FaultPlan& plan) {
  // Disarm() keeps the fired record, so this holds after the plan's scope.
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u)
      << "plan " << plan.ToString() << " did not fire exactly once";
}

inline const char* ArchName(IsaArch arch) {
  return arch == IsaArch::kX86_64 ? "x86_64" : "riscv";
}

// The count line of one sweep part; `counts` is e.g. "sites=10 trials=24".
inline void PrintCounts(std::string_view part, IsaArch arch, const std::string& counts) {
  std::printf("[ sweep ] %.*s arch=%s %s\n", static_cast<int>(part.size()), part.data(),
              ArchName(arch), counts.c_str());
}

// A seed as TYCHE_FAULT_SEED spells it: decimal, 0x-hex or 0-octal, and
// nothing else -- a typo must not quietly soak a different seed.
inline std::optional<uint64_t> ParseSeed(const char* raw) {
  if (raw[0] < '0' || raw[0] > '9') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const uint64_t seed = std::strtoull(raw, &end, 0);
  if (*end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return seed;
}

// The soak's base seed: TYCHE_FAULT_SEED when set, else `default_seed`.
// A malformed value is a test failure naming the raw value.
inline std::optional<uint64_t> BaseSeed(uint64_t default_seed) {
  const char* raw = std::getenv("TYCHE_FAULT_SEED");
  if (raw == nullptr) {
    return default_seed;
  }
  const std::optional<uint64_t> seed = ParseSeed(raw);
  if (!seed.has_value()) {
    ADD_FAILURE() << "TYCHE_FAULT_SEED=\"" << raw << "\" is not a seed";
  }
  return seed;
}

namespace internal {

// Runs trial(plan) for each (trace, plan) in order, stopping at the first
// fatal failure. Returns the number of trials run.
template <typename Trial>
uint64_t RunPlans(const std::vector<std::pair<std::string, FaultPlan>>& plans,
                  Trial& trial) {
  uint64_t run = 0;
  for (const auto& [trace, plan] : plans) {
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
    SCOPED_TRACE(trace);
    trial(plan);
    ++run;
  }
  return run;
}

}  // namespace internal

// Runs trial(FaultPlan::Single(site, trigger)) for every counted site and
// every trigger in {1, (n+1)/2, n}, where n is the site's count. Returns
// the number of trials run.
template <typename Trial>
uint64_t ForEachFirstMiddleLast(std::string_view name, IsaArch arch, const SiteCounts& counts,
                                Trial&& trial) {
  EXPECT_FALSE(counts.empty()) << name << ": the counting run reached no site";
  std::vector<std::pair<std::string, FaultPlan>> plans;
  for (const auto& [site, count] : counts) {
    for (const uint64_t trigger : std::set<uint64_t>{1, (count + 1) / 2, count}) {
      plans.emplace_back(site + "#" + std::to_string(trigger) + "/" + std::to_string(count),
                         FaultPlan::Single(site, trigger));
    }
  }
  PrintCounts(name, arch,
              "sites=" + std::to_string(counts.size()) +
                  " trials=" + std::to_string(plans.size()));
  return internal::RunPlans(plans, trial);
}

// Runs `trials` trials, trial i under FaultPlan::FromSeed(base + i * stride,
// counts), where base is BaseSeed(default_seed). The base seed is printed
// first, so any failing trial replays verbatim with TYCHE_FAULT_SEED.
// Returns the number of trials run.
template <typename Trial>
uint64_t Soak(std::string_view name, IsaArch arch, uint64_t default_seed, int trials,
              const SiteCounts& counts, Trial&& trial) {
  const std::optional<uint64_t> base_seed = BaseSeed(default_seed);
  if (!base_seed.has_value()) {
    return 0;
  }
  if (counts.empty()) {
    ADD_FAILURE() << name << ": the counting run reached no site";
    return 0;
  }
  char seed_hex[24];
  std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                static_cast<unsigned long long>(*base_seed));
  PrintCounts(name, arch,
              "sites=" + std::to_string(counts.size()) + " trials=" + std::to_string(trials) +
                  " base_seed=" + seed_hex);
  std::vector<std::pair<std::string, FaultPlan>> plans;
  for (int i = 0; i < trials; ++i) {
    const uint64_t seed = *base_seed + static_cast<uint64_t>(i) * 0x9E3779B9ull;
    FaultPlan plan = FaultPlan::FromSeed(seed, counts);
    plans.emplace_back("seed " + std::to_string(seed) + " plan " + plan.ToString(),
                       std::move(plan));
  }
  return internal::RunPlans(plans, trial);
}

// One Dispatch() of `op` with arguments a0..a5.
inline ApiResult Call(Monitor* monitor, CoreId core, ApiOp op, uint64_t a0 = 0,
                      uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0, uint64_t a4 = 0,
                      uint64_t a5 = 0) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(op);
  regs.arg0 = a0;
  regs.arg1 = a1;
  regs.arg2 = a2;
  regs.arg3 = a3;
  regs.arg4 = a4;
  regs.arg5 = a5;
  return Dispatch(monitor, core, regs);
}

// The hardware is a projection of the capability tree, and the exported
// journal verifies offline with its shadow replay matching the live graph.
// `anchor_snapshot` is empty when the journal reaches back to genesis; a
// journal compacted behind a snapshot only verifies through that anchor,
// exactly like tools/journal_verify.
inline void ExpectHardwareAndJournalSound(Monitor& monitor,
                                          std::span<const uint8_t> anchor_snapshot = {}) {
  const auto consistent = monitor.AuditHardwareConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(*consistent) << "hardware diverged from the capability tree";
  const std::string graph_json = ExportCapabilityGraphJson(monitor.engine());
  const std::vector<uint8_t> wire = monitor.ExportJournal();
  const Status verified =
      RemoteVerifier::VerifyJournal(wire, monitor.public_key(), &graph_json, anchor_snapshot);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

}  // namespace tyche::sweep

#endif  // TESTS_TESTING_SWEEP_H_

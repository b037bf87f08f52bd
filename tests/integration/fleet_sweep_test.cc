// Copyright 2026 The Tyche Reproduction Authors.
// Fleet fault sweep: every fleet fault site — monitor crash, front-end
// response blackhole, breaker-probe loss, cache poisoning, queue overflow,
// batch forgery — injected at its first / middle / last occurrence within a
// fixed workload, on both isolation backends, plus a logged-seed randomized
// soak. The workload itself carries the invariants:
//
//   correctness   a verification NEVER returns success with a measurement
//                 other than the service's pinned golden one — not under
//                 crashes, poisoned reports, stale epochs, or overload;
//   availability  every request terminates within its deadline with either
//                 the correct verdict or a typed retryable error
//                 (kUnavailable / kDeadlineExceeded) or typed kOverloaded —
//                 no hangs, no silent drops;
//   recovery      after the storm the fleet settles back to full
//                 availability: every service re-attests green (on its
//                 replica if its home crashed), and the failed-over pair's
//                 journals splice into one verifiable history.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/frontend.h"
#include "src/fleet/zipf.h"
#include "src/tyche/verifier.h"
#include "tests/testing/sweep.h"

namespace tyche {
namespace {

constexpr uint64_t kWorkloadSeed = 0xC11E47;

bool TypedAvailabilityError(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kOverloaded ||
         code == ErrorCode::kDeadlineExceeded;
}

struct FleetWorld {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<VerificationFrontEnd> frontend;
  std::vector<Digest> golden;          // pinned at install; NEVER changes
  std::vector<uint32_t> original_home;
};

std::unique_ptr<FleetWorld> MakeFleetWorld(IsaArch arch) {
  auto world = std::make_unique<FleetWorld>();
  FleetOptions fleet_options;
  fleet_options.arch = arch;
  world->fleet = Fleet::Create(fleet_options);
  if (world->fleet == nullptr) {
    return nullptr;
  }
  FrontEndOptions frontend_options;
  frontend_options.queue_capacity = 8;
  world->frontend = std::make_unique<VerificationFrontEnd>(world->fleet.get(),
                                                           frontend_options);
  for (uint32_t s = 0; s < world->fleet->num_services(); ++s) {
    world->golden.push_back(world->fleet->service(s).measurement);
    world->original_home.push_back(world->fleet->service(s).node);
  }
  return world;
}

// One checked verification: terminates within the deadline, and the verdict
// is either the golden measurement or a typed availability error.
bool VerifyChecked(FleetWorld* world, uint32_t service, uint64_t nonce) {
  const FrontEndOptions defaults;
  const uint64_t before = world->fleet->clock().now_ns;
  const auto verdict = world->frontend->Verify({service, nonce});
  const uint64_t elapsed = world->fleet->clock().now_ns - before;
  EXPECT_LE(elapsed, defaults.default_deadline_ns + 2 * defaults.poll_step_ns)
      << "service " << service << ": latency not bounded by the deadline";
  if (verdict.ok()) {
    EXPECT_EQ(verdict->measurement, world->golden[service])
        << "service " << service
        << ": verification SUCCEEDED WITH A WRONG MEASUREMENT";
    return true;
  }
  EXPECT_TRUE(TypedAvailabilityError(verdict.code()))
      << "service " << service
      << ": untyped failure: " << verdict.status().ToString();
  return false;
}

// The fixed workload every counting run, grid trial, and soak trial
// executes. Three phases — steady Zipf load, a scripted node crash under
// continued load, an overload burst through bounded admission — then a
// settle phase that demands full availability back.
void RunWorkload(FleetWorld* world) {
  Prng load(kWorkloadSeed);
  const ZipfPicker zipf(world->fleet->num_services(), 1.1);

  // Phase A: steady state. The Zipf head gets hot and populates the cache.
  for (int i = 0; i < 12; ++i) {
    VerifyChecked(world, zipf.Pick(load), 0xA000 + i);
  }

  // Phase B: node 0 dies mid-fleet (scripted, so every trial — including
  // the clean counting run — exercises breaker trips, half-open probes, and
  // the failover ladder). Load continues across all services meanwhile.
  world->fleet->node(0)->Crash();
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t s = 0; s < world->fleet->num_services(); ++s) {
      VerifyChecked(world, s, 0xB000 + pass * 0x100 + s);
    }
  }

  // Phase C: overload burst against a cold cache. Admission must bound the
  // queue, shed with typed kOverloaded, and still answer cache-servable
  // work inline. (The cache is emptied first so the burst actually queues.)
  for (uint32_t n = 0; n < world->fleet->num_nodes(); ++n) {
    world->frontend->cache().InvalidateEpochsBelow(n, ~0ull);
  }
  const size_t burst = 2 * 8 /* world queue_capacity */ + 4;
  size_t enqueued = 0;
  size_t shed = 0;
  for (size_t i = 0; i < burst; ++i) {
    const uint32_t service = zipf.Pick(load);
    const auto outcome =
        world->frontend->Submit({service, 0xC000 + static_cast<uint64_t>(i)});
    if (!outcome.ok()) {
      EXPECT_EQ(outcome.code(), ErrorCode::kOverloaded)
          << outcome.status().ToString();
      ++shed;
      continue;
    }
    if (outcome->verdict.has_value()) {
      EXPECT_EQ(outcome->verdict->measurement, world->golden[service]);
    } else {
      EXPECT_TRUE(outcome->enqueued);
      ++enqueued;
    }
  }
  EXPECT_LE(world->frontend->queue_depth(), 8u) << "admission queue unbounded";
  EXPECT_GT(shed, 0u) << "overload burst never shed";
  const auto drained = world->frontend->DrainQueue();
  EXPECT_EQ(drained.size(), enqueued);
  for (const auto& item : drained) {
    if (item.result.ok()) {
      EXPECT_EQ(item.result->measurement, world->golden[item.request.service]);
    } else {
      EXPECT_TRUE(TypedAvailabilityError(item.result.code()))
          << item.result.status().ToString();
    }
  }

  // Settle: graceful degradation must end. Every service — including those
  // that failed over — re-attests green within a few rounds.
  bool all_ok = false;
  for (int round = 0; round < 6 && !all_ok; ++round) {
    all_ok = true;
    for (uint32_t s = 0; s < world->fleet->num_services(); ++s) {
      if (!VerifyChecked(world, s, 0x5E77 + round * 0x100 + s)) {
        all_ok = false;
      }
    }
  }
  EXPECT_TRUE(all_ok) << "fleet never settled back to full availability";

  // The scripted crash must have driven a real failover, and the journals
  // of the failed-over pair must splice into one verifiable history.
  bool moved_from_node0 = false;
  for (uint32_t s = 0; s < world->fleet->num_services(); ++s) {
    if (world->original_home[s] == 0 && world->fleet->service(s).failovers > 0) {
      moved_from_node0 = true;
    }
  }
  EXPECT_TRUE(moved_from_node0) << "crashed node's domains never failed over";
  if (moved_from_node0) {
    const Status splice = VerifyJournalSplice(
        world->fleet->node(0)->monitor()->ExportJournal(),
        world->fleet->node(1)->monitor()->ExportJournal(),
        world->fleet->node(0)->monitor()->public_key(),
        world->fleet->node(1)->monitor()->public_key());
    EXPECT_TRUE(splice.ok()) << splice.ToString();
  }
}

// Counting run: the workload with every site observing but never failing.
// Only the fleet.* sites are kept — the channel and migration sites crossed
// by the failover ladder already have their own sweep.
sweep::SiteCounts CountOccurrences(IsaArch arch) {
  auto world = MakeFleetWorld(arch);
  EXPECT_NE(world, nullptr);
  if (world == nullptr) {
    return {};
  }
  return sweep::CountSites([&] { RunWorkload(world.get()); }, sweep::Prefixed({"fleet."}));
}

// One injected trial: fresh fleet, one (site, occurrence) fault, the full
// workload, and the invariants checked after every event inside it.
void RunTrial(IsaArch arch, const FaultPlan& plan) {
  auto world = MakeFleetWorld(arch);
  ASSERT_NE(world, nullptr);
  {
    ScopedFaultPlan scoped(plan);
    RunWorkload(world.get());
  }
  sweep::ExpectFiredOnce(plan);
}

void RunSweep(IsaArch arch) {
  const auto counts = CountOccurrences(arch);
  // Coverage: the clean workload reaches every fleet site, including the
  // half-open breaker probe (driven by the scripted crash) and the batched
  // drain's forgery site (driven by the phase-C overload burst).
  sweep::ExpectReached(counts, {faults::kFleetNodeCrash, faults::kFleetVerifyTimeout,
                                faults::kFleetBreakerProbe, faults::kFleetCachePoison,
                                faults::kFleetQueueOverflow, faults::kFleetBatchForge});
  sweep::ForEachFirstMiddleLast("fleet/grid", arch, counts,
                                [arch](const FaultPlan& plan) { RunTrial(arch, plan); });
}

// A clean run is itself a test: scripted crash -> breaker -> probe ->
// failover -> settle, with the front-end metrics telling the story.
TEST(FleetSweep, CleanWorkloadFailsOverAndSettles) {
  auto world = MakeFleetWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  RunWorkload(world.get());
  EXPECT_GE(world->fleet->failovers(), 1u);
  EXPECT_GE(world->fleet->migrations(), 2u);
  EXPECT_GE(world->fleet->node(0)->epoch(), 1u);
  EXPECT_GE(world->frontend->failovers_triggered(), 1u);
  EXPECT_GT(world->frontend->retries(), 0u);
  EXPECT_GT(world->frontend->cache().hits(), 0u);
  EXPECT_GT(world->frontend->shed(), 0u);
  const std::string scrape = world->frontend->metrics().ExportPrometheus();
  EXPECT_NE(scrape.find("tyche_fleet_failover_total"), std::string::npos);
}

// Quota fairness under Zipf-skewed tenant load (DESIGN.md §13): the heavy
// hitter exhausts ITS OWN bucket (typed kQuotaExceeded) while light tenants
// keep being admitted — per-tenant rejection must not depend on how loud the
// other tenants are, and the shared queue never sheds (quota != overload).
TEST(FleetSweep, QuotaFairnessZipfSoak) {
  auto fleet = Fleet::Create({});
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.tenant_quota.rate_per_sec = 100.0;
  options.tenant_quota.burst = 5.0;
  VerificationFrontEnd frontend(fleet.get(), options);

  // Warm the cache so the soak isolates admission: every submit is
  // cache-servable, the queue never fills, and the only rejection left is
  // the per-tenant quota. (Verify() is not quota-charged; Submit() is.)
  for (uint32_t s = 0; s < fleet->num_services(); ++s) {
    ASSERT_TRUE(frontend.Verify({s, 0xAA00 + s}).ok());
  }

  constexpr uint32_t kTenants = 8;
  constexpr int kRequests = 400;
  const ZipfPicker tenant_zipf(kTenants, 1.3);
  Prng prng(0x50A4F41D);
  std::vector<uint64_t> submitted(kTenants, 0);
  std::vector<uint64_t> rejected(kTenants, 0);
  uint64_t total_rejected = 0;
  bool heavy_rejected_yet = false;
  bool light_admitted_after_heavy_rejection = false;
  for (int i = 0; i < kRequests; ++i) {
    fleet->clock().Advance(1'000'000);  // 1 ms between arrivals
    const uint32_t tenant = static_cast<uint32_t>(tenant_zipf.Pick(prng));
    VerifyRequest request;
    request.service = static_cast<uint32_t>(prng.Next() % fleet->num_services());
    request.nonce = 0xD000 + static_cast<uint64_t>(i);
    request.tenant = tenant;
    ++submitted[tenant];
    const auto outcome = frontend.Submit(request);
    if (outcome.ok()) {
      EXPECT_TRUE(outcome->verdict.has_value()) << "warm cache must serve inline";
      if (heavy_rejected_yet && tenant != 0) {
        light_admitted_after_heavy_rejection = true;
      }
    } else {
      ASSERT_EQ(outcome.code(), ErrorCode::kQuotaExceeded)
          << outcome.status().ToString();
      ++rejected[tenant];
      ++total_rejected;
      if (tenant == 0) {
        heavy_rejected_yet = true;
      }
    }
  }

  // The Zipf head outruns its refill and is throttled …
  EXPECT_GT(submitted[0], submitted[kTenants - 1]) << "load was not skewed";
  EXPECT_GT(rejected[0], 0u) << "heavy hitter never throttled";
  // … while other tenants keep being admitted even while it is over quota,
  // and tenants within their refill are never rejected at all.
  EXPECT_TRUE(light_admitted_after_heavy_rejection)
      << "a light tenant was starved by the heavy hitter's rejections";
  uint32_t unthrottled_tenants = 0;
  for (uint32_t t = 0; t < kTenants; ++t) {
    if (rejected[t] == 0) {
      ++unthrottled_tenants;
    }
  }
  EXPECT_GE(unthrottled_tenants, kTenants / 2)
      << "quota rejections bled across tenants";

  EXPECT_EQ(frontend.quota_rejections(), total_rejected);
  EXPECT_EQ(frontend.shed(), 0u) << "quota exhaustion must never read as overload";
  const std::string scrape = frontend.metrics().ExportPrometheus();
  for (const char* family :
       {"tyche_fleet_tenant_admitted_total",
        "tyche_fleet_tenant_quota_exceeded_total", "tyche_fleet_tenant_tokens"}) {
    EXPECT_NE(scrape.find(family), std::string::npos) << family;
  }
}

TEST(FleetSweep, EverySiteEveryOccurrenceVtx) { RunSweep(IsaArch::kX86_64); }
TEST(FleetSweep, EverySiteEveryOccurrencePmp) { RunSweep(IsaArch::kRiscV); }

// Randomized soak: (site, occurrence) pairs sampled from the observed
// counts.
TEST(FleetSweep, RandomizedFleetSoak) {
  const IsaArch arch = IsaArch::kX86_64;
  sweep::Soak("fleet/soak", arch, 0xF1EE75EED, 10, CountOccurrences(arch),
              [arch](const FaultPlan& plan) { RunTrial(arch, plan); });
}

}  // namespace
}  // namespace tyche

// Copyright 2026 The Tyche Reproduction Authors.
// Self-test of the shared sweep harness (tests/testing/sweep.h): the grid,
// the soak, the site filters and the fired-once / reached checks must be no
// weaker than the per-sweep copies they replaced. The trials drive a real,
// cheap fault site: every FrameAllocator::Alloc() crosses hw.frame_alloc.

#include "tests/testing/sweep.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/hw/phys_memory.h"

namespace tyche {
namespace {

void AllocFrames(uint64_t n) {
  FrameAllocator frames(AddrRange{0, 64 * kPageSize});
  for (uint64_t i = 0; i < n; ++i) {
    (void)frames.Alloc();
  }
}

// Arms `plan` around three frame allocations, then checks it fired once.
void ArmAroundThreeAllocs(const FaultPlan& plan) {
  {
    ScopedFaultPlan scoped(plan);
    AllocFrames(3);
  }
  sweep::ExpectFiredOnce(plan);
}

// Sets TYCHE_FAULT_SEED for one scope and restores what was there before.
class ScopedSeedEnv {
 public:
  explicit ScopedSeedEnv(const char* value) {
    if (const char* old = std::getenv("TYCHE_FAULT_SEED")) {
      old_ = old;
    }
    if (value == nullptr) {
      unsetenv("TYCHE_FAULT_SEED");
    } else {
      setenv("TYCHE_FAULT_SEED", value, 1);
    }
  }
  ~ScopedSeedEnv() {
    if (old_.has_value()) {
      setenv("TYCHE_FAULT_SEED", old_->c_str(), 1);
    } else {
      unsetenv("TYCHE_FAULT_SEED");
    }
  }

 private:
  std::optional<std::string> old_;
};

TEST(SweepHarnessTest, CountsOnlyTheKeptSites) {
  const auto touch_all = [] {
    for (const std::string_view site :
         {faults::kJournalHeadTamper, faults::kEngineOwnedDesync, faults::kFrameAlloc}) {
      (void)FaultInjector::Instance().Check(site);
    }
  };
  EXPECT_EQ(sweep::CountSites(touch_all, sweep::Sweepable),
            (sweep::SiteCounts{{"hw.frame_alloc", 1}}));
  EXPECT_EQ(sweep::CountSites(touch_all, sweep::Prefixed({"journal.", "engine."})),
            (sweep::SiteCounts{{"engine.owned_desync", 1}, {"journal.head_tamper", 1}}));
  EXPECT_EQ(sweep::CountSites([] { AllocFrames(4); }, sweep::Sweepable),
            (sweep::SiteCounts{{"hw.frame_alloc", 4}}));
}

TEST(SweepHarnessTest, GridRunsFirstMiddleLast) {
  const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> cases = {
      {3, {1, 2, 3}}, {1, {1}}, {4, {1, 2, 4}}};
  for (const auto& [n, expected] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto counts = sweep::CountSites([n] { AllocFrames(n); }, sweep::Sweepable);
    std::vector<uint64_t> triggers;
    ::testing::internal::CaptureStdout();
    const uint64_t run =
        sweep::ForEachFirstMiddleLast("self/grid", IsaArch::kRiscV, counts,
                                      [&](const FaultPlan& plan) {
                                        triggers.push_back(plan.specs()[0].trigger);
                                        {
                                          ScopedFaultPlan scoped(plan);
                                          AllocFrames(n);
                                        }
                                        sweep::ExpectFiredOnce(plan);
                                      });
    const std::string line = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(triggers, expected);
    EXPECT_EQ(run, expected.size());
    EXPECT_EQ(line, "[ sweep ] self/grid arch=riscv sites=1 trials=" +
                        std::to_string(expected.size()) + "\n");
  }
}

TEST(SweepHarnessTest, ReportsAPlanThatDoesNotFireExactlyOnce) {
  ArmAroundThreeAllocs(FaultPlan::Single(faults::kFrameAlloc, 3));
  EXPECT_NONFATAL_FAILURE(ArmAroundThreeAllocs(FaultPlan::Single(faults::kFrameAlloc, 4)),
                          "did not fire exactly once");
  EXPECT_NONFATAL_FAILURE(
      ArmAroundThreeAllocs(FaultPlan().Add(FaultSpec{std::string(faults::kFrameAlloc), 2,
                                                      ErrorCode::kResourceExhausted,
                                                      /*repeat=*/true})),
      "did not fire exactly once");
}

TEST(SweepHarnessTest, ReportsARequiredSiteNeverReached) {
  sweep::ExpectReached({{"hw.frame_alloc", 3}}, {faults::kFrameAlloc});
  EXPECT_NONFATAL_FAILURE((sweep::ExpectReached({{"hw.frame_alloc", 3}},
                                                {faults::kFrameAlloc, faults::kRangeAlloc})),
                          "never reached os.range_alloc");
  EXPECT_NONFATAL_FAILURE((sweep::ExpectReached({{"hw.iommu_attach", 0}}, {faults::kIommuAttach})),
                          "never reached hw.iommu_attach");
}

TEST(SweepHarnessTest, SoakDrawsStridedSeedsFromTheDefault) {
  ScopedSeedEnv unset(nullptr);
  const sweep::SiteCounts counts = {{"hw.frame_alloc", 3}};
  std::vector<std::string> drawn;
  ::testing::internal::CaptureStdout();
  const uint64_t run = sweep::Soak("self/soak", IsaArch::kX86_64, 0xD1CE, 4, counts,
                                   [&](const FaultPlan& plan) {
                                     drawn.push_back(plan.ToString());
                                     ArmAroundThreeAllocs(plan);
                                   });
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "[ sweep ] self/soak arch=x86_64 sites=1 trials=4 base_seed=0xd1ce\n");
  EXPECT_EQ(run, 4u);
  ASSERT_EQ(drawn.size(), 4u);
  for (uint64_t i = 0; i < drawn.size(); ++i) {
    EXPECT_EQ(drawn[i], FaultPlan::FromSeed(0xD1CE + i * 0x9E3779B9ull, counts).ToString());
  }
}

TEST(SweepHarnessTest, SeedFromTheEnvironment) {
  {
    ScopedSeedEnv seed("42");
    EXPECT_EQ(sweep::BaseSeed(7), 42u);
  }
  {
    ScopedSeedEnv seed("0xC0FFEE");
    EXPECT_EQ(sweep::BaseSeed(7), 0xC0FFEEu);
  }
  {
    ScopedSeedEnv unset(nullptr);
    EXPECT_EQ(sweep::BaseSeed(7), 7u);
  }
}

// A typo must fail the soak, naming the raw value, rather than quietly soak
// the seed a partial parse happens to yield.
TEST(SweepHarnessTest, RejectsAMalformedSeed) {
  for (const char* raw : {"0x12zz", "seed42", "0xC0FFEG", "", " 42", "-1",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("TYCHE_FAULT_SEED=\"") + raw + "\"");
    EXPECT_FALSE(sweep::ParseSeed(raw).has_value());
  }
  ScopedSeedEnv seed("0x12zz");
  EXPECT_NONFATAL_FAILURE((void)sweep::BaseSeed(7), "TYCHE_FAULT_SEED=\"0x12zz\"");
  static int trials_run = 0;
  EXPECT_NONFATAL_FAILURE(sweep::Soak("self/soak", IsaArch::kX86_64, 7, 4,
                                      {{"hw.frame_alloc", 3}},
                                      [](const FaultPlan&) { ++trials_run; }),
                          "0x12zz");
  EXPECT_EQ(trials_run, 0);
}

}  // namespace
}  // namespace tyche

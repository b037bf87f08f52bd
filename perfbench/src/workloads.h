// Copyright 2026 The Tyche Reproduction Authors.
// The benchmark's three workloads. Each builds its world from the seed
// (set-up is timed several times and reported as a median), runs a closed
// loop for the requested seconds, checks the program's outputs, and fills a
// Report: end-to-end metrics always, per-layer metrics when traced.
//
// Simulated statistics (sim cycles, simulated latency, hardware and journal
// counts) are taken over a fixed, seeded prefix of every run, so two runs
// with the same seed report them identically whatever the host speed; host
// times cover the whole timed window.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>

#include "perfbench/src/common.h"

namespace perfbench {

Report RunDispatchChurn(const Options& options);
Report RunAttestScale(const Options& options);
Report RunFleetWeather(const Options& options);

// Median of `repeats` timed calls of `build` (seconds). Each call replaces
// the caller's world, so the last one built is the one the run uses.
template <typename Build>
double MedianSetupSeconds(int repeats, Build&& build) {
  Samples samples;
  for (int i = 0; i < repeats; ++i) {
    const uint64_t start = NowNs();
    build();
    samples.Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  return samples.Percentile(50);
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

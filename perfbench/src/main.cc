// Copyright 2026 The Tyche Reproduction Authors.
// The repository benchmark's entry point.
//
//   perfbench --workload <dispatch_churn|attest_scale|fleet_weather>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload once with tracing off and prints the
// end-to-end metrics. --trace 1 runs it twice on fresh worlds, first
// untraced and then with spans recorded at every call into a layer and the
// dispatch profiler on; it prints the per-layer metrics, including the
// tracing overhead (traced against untraced ops/s), and writes the spans to
// .bench_out/trace-<workload>-<seed>.json. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Lines before it starting with '#' carry run metadata and sample counts.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Spans written to the trace file per run (all are kept in memory).
constexpr size_t kMaxWrittenSpans = 200000;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
#else
  return false;
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dispatch_churn|attest_scale|"
               "fleet_weather> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && options->seconds > 0;
}

Report RunWorkload(const Options& options) {
  if (options.workload == "dispatch_churn") {
    return RunDispatchChurn(options);
  }
  if (options.workload == "attest_scale") {
    return RunAttestScale(options);
  }
  return RunFleetWeather(options);
}

// A value that is not finite (a ratio over nothing after a failed set-up)
// prints as 0; such a run already reports correct = false.
void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, metric.unit.c_str());
    first = false;
  }
}

void PrintNotes(const char* label, const std::map<std::string, double>& notes) {
  std::printf("# %s {", label);
  bool first = true;
  for (const auto& [name, value] : notes) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return Usage("bad arguments");
  }
  if (options.workload != "dispatch_churn" && options.workload != "attest_scale" &&
      options.workload != "fleet_weather") {
    return Usage("unknown workload");
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build; build RelWithDebInfo or "
                         "Release\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Every workload drives the system from one thread.
  std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
              "\"threads\": %u}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              EnvOr("PERFBENCH_COMMIT", "unknown").c_str(), PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), 1u);
  std::fflush(stdout);

  Report report;
  if (!options.trace) {
    report = RunWorkload(options);
    PrintNotes("samples", report.notes);
  } else {
    Options plain = options;
    plain.trace = false;
    plain.setup_repeats = 1;
    const Report untraced = RunWorkload(plain);
    Options traced = options;
    traced.setup_repeats = 1;
    report = RunWorkload(traced);
    report.correct = report.correct && untraced.correct;
    report.check_failures.insert(report.check_failures.end(),
                                 untraced.check_failures.begin(),
                                 untraced.check_failures.end());
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    auto rate = [](const Report& run) {
      const auto found = run.e2e.find("ops_per_s");
      return found == run.e2e.end() ? 0.0 : found->second.value;
    };
    const double plain_rate = rate(untraced);
    const double traced_rate = rate(report);
    report.layer["tracing.untraced_ops_per_s"] = {plain_rate, "1/s"};
    report.layer["tracing.traced_ops_per_s"] = {traced_rate, "1/s"};
    report.layer["tracing.overhead_ratio"] = {
        plain_rate > 0 ? traced_rate / plain_rate : 0.0, "ratio"};
    PrintNotes("samples", report.notes);
    const size_t recorded = report.spans.spans().size();
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    const long written = WriteTrace(path, report.spans, kMaxWrittenSpans);
    if (written < 0) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
    std::printf("# tracing {\"file\": \"%s\", \"spans_recorded\": %zu, "
                "\"spans_written\": %ld}\n",
                path.c_str(), recorded, written);
    // Every catalogued layer is printed; one the workload does not reach
    // reads 0. A metric outside the catalogue is a benchmark bug.
    std::map<std::string, Metric> layer;
    for (const auto& [name, unit] : LayerMetricCatalogue()) {
      const auto found = report.layer.find(name);
      layer[name] = found != report.layer.end() ? found->second : Metric{0.0, unit};
      report.Check(layer[name].unit == unit, "unit mismatch for " + name);
    }
    for (const auto& [name, metric] : report.layer) {
      report.Check(layer.contains(name), "uncatalogued per-layer metric " + name);
    }
    report.layer = std::move(layer);
  }
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics(options.trace ? report.layer : report.e2e);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

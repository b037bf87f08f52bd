#!/usr/bin/env python3
"""Determinism check for the repository benchmark.

Runs every workload twice with the same seed, untraced and traced, and
requires the simulated statistics to match exactly: sim_cycles_per_op, the
simulated Verify latency percentiles, the failure count, and every
count-type per-layer metric. A change that only speeds up the simulator
leaves all of these unchanged. It also checks that each run passes its own
output checks and prints exactly the metrics BENCHMARK.json declares.

Usage, from the root of a checkout:

    python3 perfbench/tests/test_determinism.py [workload ...]

Runs use --seconds 1: the simulated statistics come from a fixed prefix of
each run, which every run completes whatever the time budget.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = "4242"

# Per-layer metrics that are counts or simulated quantities: identical for
# identical seeds. Host times, phase shares and lock-contention counts
# depend on the host's timing and are left out.
DETERMINISTIC_LAYER = {
    "hw.pages_mapped_per_op",
    "hw.pages_protected_per_op",
    "hw.pmp_recompiles_per_op",
    "hw.tlb_shootdowns_per_op",
    "hw.core_binds_per_op",
    "hw.fast_binds_per_op",
    "support.journal_records_per_op",
    "fleet.cache_hit_ratio",
    "fleet.resumed_ratio",
    "fleet.full_chain_ratio",
    "fleet.retries_per_verify",
    "fleet.hedged_wins",
    "fleet.batch_quotes_per_batch",
    "fleet.verify_sim_p50_us",
    "fleet.verify_sim_p99_us",
}
DETERMINISTIC_E2E = {"sim_cycles_per_op"}


def run(workload, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        0: {metric["name"] for metric in spec["end_to_end"]},
        1: {metric["name"] for metric in spec["per_layer"]},
    }
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    failures = []
    for workload in workloads:
        for trace, compared in ((0, DETERMINISTIC_E2E), (1, DETERMINISTIC_LAYER)):
            first, second = run(workload, trace), run(workload, trace)
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    failures.append("%s trace=%d: output checks failed" % (workload, trace))
                if set(result["metrics"]) != declared[trace]:
                    failures.append("%s trace=%d: metrics differ from BENCHMARK.json: %s" %
                                    (workload, trace,
                                     sorted(set(result["metrics"]) ^ declared[trace])))
            for name in sorted(compared & set(first["metrics"])):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                status = "ok" if a == b else "DIFFERS"
                print("%-15s %-34s %-14.10g %-14.10g %s" % (workload, name, a, b, status))
                if a != b:
                    failures.append("%s: %s differs between same-seed runs" % (workload, name))
    for failure in failures:
        print("FAIL: " + failure)
    print("determinism: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

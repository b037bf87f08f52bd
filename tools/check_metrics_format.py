#!/usr/bin/env python3
"""CI check: Monitor::ExportMetrics() output must be valid Prometheus text.

Validates the text exposition format line by line -- HELP/TYPE headers,
metric-name and label syntax, numeric sample values, histogram structure
(cumulative buckets ending in le="+Inf", plus _sum and _count) -- and then
asserts the export covers every signal family the monitor keeps: the scrape
is the monitor's one aggregate read-out. Fails (exit 1) listing every
violation, so a formatting regression in the exporter is caught before a
real scraper trips on it.

Usage:
    check_metrics_format.py metrics.prom [--require-nonzero tyche_api_calls_total]
    check_metrics_format.py fleet.prom --profile fleet

`--profile` selects which family checklist applies: `monitor` (default) is
the Monitor::ExportMetrics() contract, `fleet` is the verification
front end's registry (tyche_fleet_* families).
"""

import argparse
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[0-9]+(?:\.[0-9]+)?|[+-]Inf|NaN)\s*$"
)

# Every signal family the monitor keeps; ExportMetrics() is its one aggregate
# read-out, so the export is only complete if each appears (a histogram counts
# via _count).
MONITOR_FAMILIES = [
    "tyche_api_calls_total",
    "tyche_transitions_total",
    "tyche_capability_ops_total",
    "tyche_revocations_cascaded_total",
    "tyche_recoveries_total",
    "tyche_effects_total",
    "tyche_backend_ops_total",
    "tyche_journal_records",
    "tyche_journal_checkpoints",
    "tyche_journal_group_commit_batches_total",
    "tyche_journal_group_commit_records_total",
    "tyche_journal_group_commit_max_batch",
    "tyche_trace_recorded_total",
    "tyche_trace_dropped_total",
    "tyche_lock_contention_total",
    "tyche_fault_injections_fired_total",
    "tyche_fault_injection_active",
    "tyche_domains_alive",
    "tyche_dispatch_latency_ns",
    "tyche_flight_captures_total",
    # The per-(op, phase) histograms and their sample total render in every
    # scrape, empty while the profiler is off.
    "tyche_dispatch_phase_latency_ns",
    "tyche_profiler_samples_total",
]

# Families the fleet verification front end registers; CI's fleet metrics
# scrape step checks its registry and every dashboard signal must be present.
FLEET_FAMILIES = [
    "tyche_fleet_verifications_total",
    "tyche_fleet_retries_total",
    "tyche_fleet_hedged_total",
    "tyche_fleet_hedged_wins_total",
    "tyche_fleet_shed_total",
    "tyche_fleet_failover_total",
    "tyche_fleet_deadline_exceeded_total",
    "tyche_fleet_cache_hits_total",
    "tyche_fleet_cache_misses_total",
    "tyche_fleet_cache_hit_ratio_percent",
    "tyche_fleet_breaker_state",
    "tyche_fleet_node_epoch",
    "tyche_fleet_queue_depth",
    # Phase 2 (DESIGN.md §13): batching, session resumption, TTL expiry, and
    # per-tenant quota accounting.
    "tyche_fleet_cache_expired_total",
    "tyche_fleet_session_established_total",
    "tyche_fleet_session_resumed_total",
    "tyche_fleet_session_rejected_total",
    "tyche_fleet_batch_verifies_total",
    "tyche_fleet_batch_quotes_total",
    "tyche_fleet_batch_forged_total",
    "tyche_fleet_batch_fallback_total",
    "tyche_fleet_tenant_admitted_total",
    "tyche_fleet_tenant_quota_exceeded_total",
    "tyche_fleet_tenant_tokens",
]

PROFILES = {"monitor": MONITOR_FAMILIES, "fleet": FLEET_FAMILIES}


def base_family(sample_name):
    """Strips histogram suffixes so samples map back to their family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def validate_labels(raw, line_no, errors):
    pos = 0
    while pos < len(raw):
        match = LABEL_RE.match(raw, pos)
        if not match:
            errors.append(f"line {line_no}: malformed label set at '{raw[pos:pos + 30]}'")
            return {}
        pos = match.end()
        if pos < len(raw):
            if raw[pos] != ",":
                errors.append(f"line {line_no}: expected ',' between labels")
                return {}
            pos += 1
    return dict(LABEL_RE.findall(raw))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="metrics text file to validate")
    parser.add_argument(
        "--require-nonzero",
        action="append",
        default=[],
        help="family that must have at least one sample > 0 (repeatable)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="monitor",
        help="which required-family checklist applies (default: monitor)",
    )
    args = parser.parse_args()

    with open(args.path) as f:
        lines = f.read().splitlines()

    errors = []
    declared = {}  # family -> type
    family_values = {}  # family -> [float]
    histogram_state = {}  # family+labels(frozen) -> last cumulative, saw_inf

    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not NAME_RE.match(parts[2]):
                errors.append(f"line {line_no}: malformed {parts[1]} line")
                continue
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    errors.append(f"line {line_no}: unknown TYPE '{parts[3]}'")
                if parts[2] in declared:
                    errors.append(f"line {line_no}: duplicate TYPE for {parts[2]}")
                declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            errors.append(f"line {line_no}: unexpected comment '{line[:40]}'")
            continue

        match = SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {line_no}: unparseable sample '{line[:60]}'")
            continue
        name = match.group("name")
        labels = validate_labels(match.group("labels") or "", line_no, errors)
        family = base_family(name)
        if family not in declared:
            errors.append(f"line {line_no}: sample '{name}' has no TYPE declaration")
            continue
        ftype = declared[family]
        value = float(match.group("value").replace("Inf", "inf"))
        family_values.setdefault(family, []).append(value)

        if ftype == "histogram":
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {line_no}: histogram bucket without 'le' label")
                    continue
                key = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
                last, saw_inf = histogram_state.get(key, (0.0, False))
                if saw_inf:
                    errors.append(f"line {line_no}: bucket after le=\"+Inf\" for {family}")
                if value < last:
                    errors.append(
                        f"line {line_no}: non-cumulative bucket for {family} "
                        f"({value} < {last})"
                    )
                histogram_state[key] = (value, labels["le"] == "+Inf")
            elif not (name.endswith("_sum") or name.endswith("_count")):
                errors.append(f"line {line_no}: bad histogram sample name '{name}'")
        elif ftype == "counter":
            if not family.endswith("_total"):
                errors.append(f"line {line_no}: counter family '{family}' lacks _total")
            if value < 0:
                errors.append(f"line {line_no}: negative counter value")

    for key, (_, saw_inf) in histogram_state.items():
        if not saw_inf:
            errors.append(f"histogram series {key[0]}{dict(key[1])} never emitted le=\"+Inf\"")

    for family in PROFILES[args.profile]:
        if family not in family_values:
            errors.append(f"required family missing from export: {family}")

    for family in args.require_nonzero:
        values = family_values.get(family, [])
        if not any(v > 0 for v in values):
            errors.append(f"family {family} has no nonzero sample")

    if errors:
        for error in errors:
            print(error)
        print(f"FAIL: {len(errors)} problem(s) in {args.path}")
        return 1
    print(
        f"OK: {args.path} is valid Prometheus text "
        f"({len(declared)} families, {sum(len(v) for v in family_values.values())} samples)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

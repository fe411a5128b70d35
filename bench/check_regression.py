#!/usr/bin/env python3
"""CI bench-regression gate.

Compares fresh BENCH_*.json files against committed baselines under
bench/baselines/. Each baseline may carry four rule sections:

  "throughput": fresh >= (1 - tolerance) * baseline   (relative floor)
  "exact":      fresh == baseline                     (membership, hashes)
  "upper":      fresh <= baseline                     (absolute ceiling)
  "lower":      fresh >= baseline                     (absolute floor)

Throughput uses a tolerance (default 25%) because CI machines vary;
front membership and hashes are compared exactly — any Pareto-front
change must come with an intentional re-baseline (see README, "The CI
bench-regression gate").

A second mode gates instrumentation overhead: --overhead-pair BASE
INSTRUMENTED takes two bench JSON files from the same machine and
requires the instrumented side's throughput metric (--overhead-key,
default requests_per_sec) to stay within --overhead-tolerance
(default 3%) of the base side. CI uses it twice:

  * tracing: BENCH_service.json from a -DDAHLIA_ENABLE_TRACE=OFF
    build vs the default instrumented build (tracing compiled in but
    not enabled) — the "near-zero cost when disabled" contract of
    TRACE_SPAN in src/support/EventLog.h;
  * the search journal: BENCH_fig7 configs_per_sec with the journal
    off vs on (--overhead-key configs_per_sec --overhead-tolerance
    0.05) — an *enabled* journal may cost a fig7 sweep at most 5%.

Usage:
  check_regression.py [--tolerance 0.25] --pair BASELINE FRESH \
                      [--pair BASELINE FRESH ...] \
                      [--overhead-pair BASE INSTRUMENTED] \
                      [--overhead-tolerance 0.03] \
                      [--overhead-key requests_per_sec]
Exits non-zero listing every violated rule.
"""

import argparse
import json
import sys


def check_pair(baseline_path, fresh_path, tolerance):
    with open(baseline_path) as f:
        base = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    failures = []
    label = f"{fresh_path} vs {baseline_path}"

    bench = base.get("bench")
    if bench is not None and fresh.get("bench") != bench:
        failures.append(
            f"{label}: bench mismatch: {fresh.get('bench')!r} != {bench!r}")
        return failures

    for key, want in base.get("throughput", {}).items():
        got = fresh.get(key)
        floor = (1.0 - tolerance) * want
        if got is None:
            failures.append(f"{label}: missing throughput metric {key!r}")
        elif got < floor:
            failures.append(
                f"{label}: {key} regressed: {got:.1f} < {floor:.1f} "
                f"(baseline {want:.1f}, tolerance {tolerance:.0%})")
        else:
            print(f"  ok {key}: {got:.1f} (>= {floor:.1f})")

    for key, want in base.get("exact", {}).items():
        got = fresh.get(key)
        if got != want:
            failures.append(
                f"{label}: {key} changed: {got!r} != baseline {want!r} "
                f"(Pareto membership / exact metrics must be re-baselined "
                f"intentionally)")
        else:
            print(f"  ok {key}: {got!r}")

    for key, want in base.get("upper", {}).items():
        got = fresh.get(key)
        if got is None:
            failures.append(f"{label}: missing metric {key!r}")
        elif got > want:
            failures.append(f"{label}: {key} above ceiling: {got} > {want}")
        else:
            print(f"  ok {key}: {got} (<= {want})")

    for key, want in base.get("lower", {}).items():
        got = fresh.get(key)
        if got is None:
            failures.append(f"{label}: missing metric {key!r}")
        elif got < want:
            failures.append(f"{label}: {key} below floor: {got} < {want}")
        else:
            print(f"  ok {key}: {got} (>= {want})")

    return failures


def check_overhead(base_path, instrumented_path, tolerance, key):
    """Gate the cost of an instrumentation layer.

    Both files come from the same bench run on the same machine, so the
    comparison is relative and machine-independent: the instrumented
    run's ``key`` metric may lose at most ``tolerance`` against the
    base run.
    """
    with open(base_path) as f:
        base_doc = json.load(f)
    with open(instrumented_path) as f:
        inst_doc = json.load(f)

    label = f"{instrumented_path} vs {base_path}"
    base = base_doc.get(key)
    got = inst_doc.get(key)
    if base is None or got is None:
        return [f"{label}: missing {key} in one side"]
    if base <= 0:
        return [f"{label}: base {key} is {base}"]

    floor = (1.0 - tolerance) * base
    if got < floor:
        return [
            f"{label}: instrumentation overhead exceeds {tolerance:.0%}: "
            f"instrumented {key} {got:.1f} < {floor:.1f} "
            f"(base run {base:.1f})"]
    print(f"  ok instrumentation overhead: {key} {got:.1f} vs "
          f"base {base:.1f} ({got / base - 1.0:+.1%}, floor {floor:.1f})")
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative throughput regression (0.25 = 25%%)")
    ap.add_argument("--pair", nargs=2, action="append", default=[],
                    metavar=("BASELINE", "FRESH"))
    ap.add_argument("--overhead-pair", nargs=2, action="append", default=[],
                    metavar=("BASE", "INSTRUMENTED"),
                    help="bench JSON from the base run and from the "
                         "instrumented run (same bench, same machine)")
    ap.add_argument("--overhead-tolerance", type=float, default=0.03,
                    help="allowed instrumentation throughput loss "
                         "(0.03 = 3%%)")
    ap.add_argument("--overhead-key", default="requests_per_sec",
                    help="throughput metric compared by --overhead-pair "
                         "(default requests_per_sec)")
    args = ap.parse_args()
    if not args.pair and not args.overhead_pair:
        ap.error("need at least one --pair or --overhead-pair")

    failures = []
    for baseline, fresh in args.pair:
        print(f"checking {fresh} against {baseline}")
        failures += check_pair(baseline, fresh, args.tolerance)
    for base, instrumented in args.overhead_pair:
        print(f"checking instrumentation overhead: {instrumented} "
              f"against {base}")
        failures += check_overhead(base, instrumented,
                                   args.overhead_tolerance,
                                   args.overhead_key)

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print("\nbench-regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

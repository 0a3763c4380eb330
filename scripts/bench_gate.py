#!/usr/bin/env python3
"""Exact gate for a bench's --bench-json record.

Compares a freshly written record (--current) with its checked-in
baseline (--baseline, e.g. BENCH_SWEEP_ENGINE.json). A record holds only
fields that are exact for a commit: run parameters, digests, tallies,
rounds, bytes per node and verdict flags. Timing stays on each bench's
stdout, and perfbench (BENCHMARK.json) is the one place that judges
speed. So every difference fails: a field present on one side only, or
a value that differs. A float compares with a 1e-9 relative tolerance,
so that a change in decimal formatting does not read as a new value.

Exit status: 0 equal, 1 any mismatch, 2 unreadable input. Stdlib only.
"""

import argparse
import json
import math
import sys


def same(base, cur):
    if isinstance(base, bool) or isinstance(cur, bool):
        return base is cur
    if isinstance(base, float) or isinstance(cur, float):
        numbers = (int, float)
        return (isinstance(base, numbers) and isinstance(cur, numbers) and
                math.isclose(base, cur, rel_tol=1e-9, abs_tol=1e-12))
    return type(base) is type(cur) and base == cur


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"bench_gate: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    return data


def main():
    parser = argparse.ArgumentParser(
        description="compare a --bench-json record exactly with its baseline")
    parser.add_argument("--baseline", required=True,
                        help="checked-in record, e.g. BENCH_DIAG.json")
    parser.add_argument("--current", required=True,
                        help="freshly written record")
    args = parser.parse_args()
    baseline, current = load(args.baseline), load(args.current)

    failures = []
    for key in sorted(set(baseline) | set(current)):
        if key not in current:
            failures.append(f"{key}: missing from current run")
        elif key not in baseline:
            failures.append(f"{key}: not in baseline")
        elif not same(baseline[key], current[key]):
            failures.append(f"{key}: baseline {baseline[key]!r} "
                            f"!= current {current[key]!r}")
    for msg in failures:
        print(f"bench_gate: FAIL {msg}")
    verdict = f"{len(failures)} mismatch(es)" if failures else "equal"
    print(f"bench_gate: {verdict} ({args.current} vs {args.baseline})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

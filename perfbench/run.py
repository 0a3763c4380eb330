#!/usr/bin/env python3
"""Build and run one perfbench workload, check it, print its metrics.

    python3 perfbench/run.py --workload table-q20 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it needs) into
.bench_build/perfbench with CMake, runs the workload once, and prints the
binary's own lines followed by every metric with its unit. The last line
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end ones of BENCHMARK.json, with --trace 1 the
per_layer ones (zero where a layer is not on the workload's path), and the
spans of the traced run are written to .bench_build/perfbench/.

The run is incorrect, and the exit status 1, when the binary reports a
correctness error, or when its exact check values (digests and
host-independent counts) differ from the ones recorded for this workload
and seed in perfbench/expected.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"build failed: {err}")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        print("\n".join(lines))
        sys.exit(f"perfbench exited with {proc.returncode} and no result")
    raw = json.loads(lines[-1][len("RESULT "):])
    for line in lines[:-1]:
        print(line)

    errors = list(raw["errors"])
    if proc.returncode != 0 and not errors:
        errors.append(f"perfbench exited with {proc.returncode}")
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print(f"no recorded check values for seed {args.seed}: "
              "in-run reference checks only")
    else:
        for name, want in expected.items():
            got = raw["checks"].get(name)
            if got != want:
                errors.append(f"check {name}: got {got}, recorded {want}")
        print(f"check values match the {len(expected)} recorded for "
              f"seed {args.seed}")
    for name, value in raw["checks"].items():
        print(f"check {name} = {value}")

    measured = raw["metrics"]
    for name, m in measured.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            errors.append(f"end-to-end metric {m['name']} not measured")
    for err in errors:
        print(f"ERROR: {err}")

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

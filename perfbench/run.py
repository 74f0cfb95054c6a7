#!/usr/bin/env python3
"""Benchmark entry point for svtox.

Run from the repository root:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the svtox libraries from ../src plus the in-process
program svtox_perfbench) into .bench_build/perfbench in Release mode, runs
one workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics named in BENCHMARK.json, --trace 1 the per-layer ones; the traced
run also writes its spans to .bench_build/perfbench/trace-<workload>-<seed>.jsonl.
Build output, progress and the host record go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_suite", "hier_dag100k", "service_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no svtox sources (src/) next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "svtox_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    parser.add_argument("--inject-bad", action="store_true",
                        help="corrupt one result; its check must fail (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    if args.inject_bad:
        command.append("--inject-bad")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"svtox_perfbench exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("svtox_perfbench printed no result")
    raw = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {name}")
            # A layer this workload never calls did no work in it.
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} is in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print(json.dumps({"correct": attempted >= 1 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

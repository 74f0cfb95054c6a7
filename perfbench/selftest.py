#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes. Run from the repository root:

    python3 perfbench/selftest.py

Checks, for every workload, that
  * an untraced and a traced run succeed and print every metric named in
    BENCHMARK.json with its unit;
  * an injected bad result (--inject-bad) is counted as a failed operation;
  * a second seed changes the service_mix job stream and the hier DAG, but
    not the set of metrics.
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "hier_dag100k", "service_mix")


def run(workload, seed, trace, *extra):
    """Returns (result object, stderr) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def inputs_line(stderr):
    match = re.search(r"^inputs: .*$", stderr, re.MULTILINE)
    if match is None:
        raise AssertionError("no 'inputs:' line on stderr")
    return match.group(0)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(workload, 1, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {result['attempted']} checked")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every {group} metric with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{workload}: every end-to-end metric is non-zero")

        bad, _ = run(workload, 1, 0, "--inject-bad")
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{workload}: injected bad result counted as failed ({bad['failed']})")

        one, err_one = run(workload, 1, 0)
        two, err_two = run(workload, 2, 0)
        expect(set(one["metrics"]) == set(two["metrics"]),
               f"{workload}: seed 2 reports the same metric set")
        if workload in ("service_mix", "hier_dag100k"):
            expect(inputs_line(err_one) != inputs_line(err_two),
                   f"{workload}: seed 2 changes the inputs ({inputs_line(err_two)})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

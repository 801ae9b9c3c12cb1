#!/usr/bin/env python3
"""Smoke test of nbcp-bench, registered with ctest as nbcp_bench_smoke.

  python3 bench/suite/smoke.py <path to nbcp-bench>

Runs every workload with --quick, untraced and traced, and checks that each
run is correct and reports every metric BENCHMARK.json declares, finite and
in its declared unit. Runs each simulator workload twice with one seed and
checks that every exact value repeats.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEED = "5"


def expect(condition, what):
    if not condition:
        raise SystemExit(f"nbcp_bench_smoke: FAILED: {what}")


def run(binary, workload, trace, out):
    command = [binary, "--workload", workload, "--seed", SEED, "--seconds",
               "0.2", "--trace", trace, "--quick", "--out", out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=60)
    lines = done.stdout.strip().splitlines()
    expect(done.returncode == 0 and lines,
           f"{' '.join(command)}: exit {done.returncode}")
    return json.loads(lines[-1])


def check(result, declared, what):
    expect(result["correct"] and result["failed"] == 0, f"{what}: {result}")
    expect(result["attempted"] >= 1, f"{what}: nothing attempted")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        expect(got is not None, f"{what}: {metric['name']} missing")
        expect(math.isfinite(got["value"]), f"{what}: {metric['name']}")
        expect(got["unit"] == metric["unit"], f"{what}: {metric['name']} unit")


def exact(out, workload, trace):
    name = workload + (".traced" if trace == "1" else "") + f".{SEED}.json"
    with open(os.path.join(out, name)) as f:
        return json.load(f).get("exact", {})


def main():
    binary = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        os.makedirs(first)
        os.makedirs(second)
        for workload in spec["workloads"]:
            name = workload["name"]
            check(run(binary, name, "0", first), spec["end_to_end"],
                  f"{name} untraced")
            check(run(binary, name, "1", first), spec["per_layer"],
                  f"{name} traced")
            if not name.startswith("sim-"):
                continue
            for trace in ("0", "1"):
                run(binary, name, trace, second)
                a, b = exact(first, name, trace), exact(second, name, trace)
                expect(a and a == b, f"{name} trace={trace}: {a} != {b}")
    print("nbcp_bench_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

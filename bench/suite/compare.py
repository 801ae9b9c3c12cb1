#!/usr/bin/env python3
"""Compares two directories of nbcp-bench run files against BENCHMARK.json.

  python3 bench/suite/compare.py <base-dir> <new-dir> [--benchmark FILE]

A run file is what `nbcp-bench --out <dir>` (or bench/suite/run.py) writes:
one JSON per run, holding the run's metrics and its exact block. For every
workload found in both directories:

  * each end-to-end metric: the median, quartiles and run count of each side,
    the ratio new/base with its base, the share by which new is worse, and
    the pairs new won, lost and tied (runs paired by seed, else by order).
    Over bound fails;
  * every exact value (virtual-time latencies, message and allocation
    counts, abort rates) must be identical between runs of the same seed;
  * per-layer metrics from traced runs are reported as ratios, ungated.

Exit code 0 when every metric is within bound and every exact value
matches, 1 otherwise, 2 on bad input.
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(directory):
    """{(workload, traced): [run, ...]} from every run file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if "workload" not in run or "metrics" not in run:
            continue
        key = (run["workload"], bool(run.get("trace")))
        runs.setdefault(key, []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def pairs(base, new):
    """Runs paired by seed, or by position when the seeds differ."""
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(base, new))


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_end_to_end(workload, base, new, spec, out):
    ok = True
    out.append(f"\n== {workload}: end to end "
               f"({len(base)} base runs, {len(new)} new runs)")
    out.append(f"  {'metric':<16} {'base med':>12} {'[q1, q3]':>25} "
               f"{'new med':>12} {'[q1, q3]':>25} {'new/base':>9} "
               f"{'worse':>7} {'bound':>6} {'w/l/t':>8}")
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        b, n = values_of(base, name), values_of(new, name)
        if not b or not n:
            out.append(f"  {name:<16} missing in "
                       f"{'base' if not b else 'new'}")
            ok = False
            continue
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        worse = worse_share(bmed, nmed, better)
        wins = losses = ties = 0
        for rb, rn in pairs(base, new):
            vb = rb["metrics"][name]["value"]
            vn = rn["metrics"][name]["value"]
            delta = worse_share(vb, vn, better)
            if delta < 0:
                wins += 1
            elif delta > 0:
                losses += 1
            else:
                ties += 1
        verdict = "ok" if worse <= bound else "OVER"
        ok = ok and worse <= bound
        ratio = nmed / bmed if bmed else math.inf
        out.append(
            f"  {name:<16} {bmed:>12.6g} [{bq1:>11.6g},{bq3:>11.6g}] "
            f"{nmed:>12.6g} [{nq1:>11.6g},{nq3:>11.6g}] {ratio:>9.4f} "
            f"{worse:>+7.2%} {bound:>6.0%} {wins:>2}/{losses}/{ties} {verdict}"
            f"  (base {bmed:.6g} {metric['unit']})")
    return ok


def compare_exact(workload, base, new, out):
    """Every exact value must match between runs of the same seed."""
    ok = True
    by_seed = {r["seed"]: r for r in base}
    checked = 0
    for rn in new:
        rb = by_seed.get(rn["seed"])
        if rb is None:
            continue
        eb, en = rb.get("exact", {}), rn.get("exact", {})
        for name in sorted(set(eb) | set(en)):
            checked += 1
            if eb.get(name) != en.get(name):
                ok = False
                out.append(f"  EXACT MISMATCH {workload} seed {rn['seed']} "
                           f"{name}: base {eb.get(name)} new {en.get(name)}")
    if checked:
        out.append(f"  exact values: {checked} compared, "
                   f"{'all identical' if ok else 'MISMATCHES above'}")
    return ok


def compare_layers(workload, base, new, spec, out):
    out.append(f"\n== {workload}: per layer (ungated; medians)")
    for metric in spec["per_layer"]:
        name = metric["name"]
        b, n = values_of(base, name), values_of(new, name)
        if not b or not n:
            out.append(f"  {name:<32} missing")
            continue
        bmed, nmed = statistics.median(b), statistics.median(n)
        ratio = f"{nmed / bmed:9.4f}" if bmed else "      n/a"
        out.append(f"  {name:<32} base {bmed:>14.6g}  new {nmed:>14.6g}  "
                   f"new/base {ratio} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        base, new = load_runs(args.base), load_runs(args.new)
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    out = []
    ok = True
    compared = 0
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        compared += 1
        if traced:
            compare_layers(workload, base[key], new[key], spec, out)
        else:
            ok = compare_end_to_end(workload, base[key], new[key], spec,
                                    out) and ok
        ok = compare_exact(workload, base[key], new[key], out) and ok
    if compared == 0:
        print("compare.py: no workload has run files on both sides",
              file=sys.stderr)
        return 2
    print("\n".join(out))
    if ok:
        print("\nPASS: every end-to-end median within its bound and every "
              "exact value identical")
        return 0
    print("\nFAIL: see OVER / EXACT MISMATCH above")
    return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark regression gate: compares BENCH_*.json snapshots against
committed baselines and fails only on regressions worse than a threshold
(default 2x).

Usage:
    bench/check_regression.py <baseline-dir> <current-dir> [--threshold 2.0]

Only virtual-time headline metrics are compared — they are deterministic
per seed, so they do not depend on the machine CI happens to run on (the
google-benchmark real-time micro-benches are intentionally excluded).
Wall-clock numbers are gated only as ratios within one run: the threaded
speedup against its baseline, and the CEILINGS below as absolute bounds on
the current snapshot.
Latency-like metrics (us) regress upward, throughput metrics (tx/s)
regress downward; improvements never fail. The 2x default is deliberately
loose: the gate exists to catch accidental algorithmic regressions (an
extra round, a lost batching opportunity), not noise.
"""
import argparse
import glob
import json
import os
import sys

# Per table: row-identity fields and {metric: direction}. "lower" = smaller
# is better (latencies), "higher" = bigger is better (throughput).
HEADLINES = {
    "latency": (("protocol", "n"),
                {"clean_median_us": "lower", "crash_median_us": "lower"}),
    "election_ablation": (("n",),
                          {"bully_median_us": "lower",
                           "ring_median_us": "lower"}),
    "throughput": (("protocol",),
                   {"closed_tps": "higher", "open_tps": "higher"}),
    "critical_path": (("protocol", "n"), {"span_us": "lower"}),
    # Threaded runtime: absolute tx/s is wall-clock and machine-dependent,
    # so it is not gated. The speedup column is a same-run ratio of the
    # two backends on the same host — a drop means the runtime's handoff
    # costs grew relative to the simulator — and extra cores only raise
    # it, so a baseline recorded on a small machine is safe on any
    # runner. messages_per_txn is deterministic protocol structure.
    "threaded_throughput": (("protocol", "n"),
                            {"speedup": "higher",
                             "messages_per_txn": "lower"}),
    "blocking": (("protocol", "scenario"),
                 {"p_block": "lower", "mean_blocked_us": "lower",
                  "max_blocked_us": "lower"}),
    # Structural gates: node/schedule counts are deterministic, so any
    # growth is an algorithmic change (lost reduction, exploded encoding),
    # not machine noise. Build times are intentionally not gated.
    "symmetry": (("protocol", "n"),
                 {"unreduced_nodes": "lower", "reduced_nodes": "lower"}),
    "param": (("protocol", "n"),
              {"abstract_nodes": "lower", "concrete_nodes": "lower"}),
    "exhaustive": (("protocol", "n"), {"schedules": "lower",
                                       "graph_nodes": "lower"}),
    "dpor": (("protocol", "n"), {"dpor_schedules": "lower"}),
    # Race analysis: pair counts are structural too. pairs_examined is
    # gated "higher" — shrinkage means the analyzer silently lost coverage
    # (a filter got too eager); racy_pairs "lower" — growth means a spec
    # or engine change introduced an outcome-changing race; executions
    # "lower" bounds the classification cost.
    "race": (("protocol", "mode"),
             {"pairs_examined": "higher", "racy_pairs": "lower",
              "executions": "lower"}),
}

# Per table: row-identity fields and {metric: ceiling}. A ceiling bounds
# the current snapshot alone, whatever the baseline holds. Used for
# same-run wall-clock ratios, which do not depend on the host.
CEILINGS = {
    # bench_throughput times the same 3PC commit at n=16 through the
    # spec-interpreting engine and a hand-coded switch, in one run. Above
    # 2.0 the interpreter has regressed towards its former string-keyed
    # cost (2.6-3.7x).
    "ablation": (("protocol", "n"), {"interpreted_over_handcoded": 2.0}),
}

SKIP_FILES = ("BENCH_RESULTS.json", "BENCH_summary.json")


def load_rows(path, tables):
    """BENCH_<name>.json -> {row-key: {metric: (value, spec)}} for the
    tables in `tables` ({table: (key fields, {metric: spec})})."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("rows", []):
        table = row.get("table")
        if table not in tables:
            continue
        key_fields, metrics = tables[table]
        key = "/".join([table] + [str(row.get(k, "?")) for k in key_fields])
        for metric, spec in metrics.items():
            value = row.get(metric)
            if isinstance(value, (int, float)):
                out.setdefault(key, {})[metric] = (float(value), spec)
    return out


def load_metrics(path):
    """BENCH_<name>.json -> {row-key: {metric: (value, direction)}}."""
    return load_rows(path, HEADLINES)


def check_ceilings(name, path):
    """Yields a failure line for each metric above its CEILINGS bound."""
    for key, metrics in sorted(load_rows(path, CEILINGS).items()):
        for metric, (value, ceiling) in sorted(metrics.items()):
            if value > ceiling:
                yield (f"FAIL {name} {key} {metric}: {value:.2f} exceeds "
                       f"{ceiling:.2f} within one run")


def compare(name, baseline, current, threshold):
    """Yields (key, metric, base, cur, ratio, regressed) tuples."""
    for key, metrics in sorted(baseline.items()):
        cur_metrics = current.get(key, {})
        for metric, (base, direction) in sorted(metrics.items()):
            if metric not in cur_metrics:
                if key in current:
                    # Row exists but the metric vanished: name the hole
                    # instead of silently shrinking the comparison set.
                    print(f"warn {name} {key} {metric}: "
                          f"in baseline but missing from current snapshot")
                continue  # Fully missing rows are flagged by the caller.
            cur = cur_metrics[metric][0]
            if base <= 0 or cur <= 0:
                continue  # Blocked/absent cells encode as <= 0; not comparable.
            ratio = cur / base if direction == "lower" else base / cur
            yield key, metric, base, cur, ratio, ratio > threshold


def warn_unbaselined(name, baseline, current):
    """Names headline metrics present in the run but absent from the
    baseline — new rows or metrics the gate is not yet protecting; the fix
    is to refresh bench/baselines/."""
    for key, metrics in sorted(current.items()):
        base_metrics = baseline.get(key)
        if base_metrics is None:
            print(f"warn {name} {key}: row not in baseline (ungated; "
                  f"refresh bench/baselines/)")
            continue
        for metric in sorted(metrics):
            if metric not in base_metrics:
                print(f"warn {name} {key} {metric}: "
                      f"metric not in baseline (ungated; "
                      f"refresh bench/baselines/)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when worse than this factor (default 2.0)")
    args = parser.parse_args()

    baselines = sorted(
        p for p in glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json"))
        if os.path.basename(p) not in SKIP_FILES)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    for base_path in baselines:
        name = os.path.basename(base_path)
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(cur_path):
            print(f"FAIL {name}: no current snapshot at {cur_path}")
            failures += 1
            continue
        for failure in check_ceilings(name, cur_path):
            print(failure)
            failures += 1
        base = load_metrics(base_path)
        cur = load_metrics(cur_path)
        missing = sorted(set(base) - set(cur))
        for key in missing:
            print(f"FAIL {name} {key}: row missing from current snapshot")
            failures += 1
        warn_unbaselined(name, base, cur)
        for key, metric, b, c, ratio, regressed in compare(
                name, base, cur, args.threshold):
            compared += 1
            if regressed:
                print(f"FAIL {name} {key} {metric}: "
                      f"{b:.1f} -> {c:.1f} ({ratio:.2f}x worse, "
                      f"threshold {args.threshold:.1f}x)")
                failures += 1
            elif ratio > 1.2:  # Heads-up zone: worse, but under the gate.
                print(f"warn {name} {key} {metric}: "
                      f"{b:.1f} -> {c:.1f} ({ratio:.2f}x worse)")

    print(f"{compared} metrics compared against "
          f"{len(baselines)} baseline snapshot(s): "
          f"{'OK' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

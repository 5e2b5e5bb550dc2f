"""Compare two sets of benchmark results.

    python3 perfbench/run.py --compare DIR_A DIR_B

Each directory holds result files written by ``run.py``
(``<workload>_s<seed>_t<trace>.json``). For every workload and metric the
table gives each side's median and quartiles, the share of seed-matched
pairs that B wins (ties count for neither) and a verdict:

* ``improved``: B wins at least 9 in 10 pairs and its median is better by
  more than the distance between A's quartiles;
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the metric's bound, and not every run of B beats
  every run of A; also when a side has fewer than two runs;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``within bound``: otherwise.

Per-layer metrics have no bound: they read ``improved``, ``regressed``
(the mirror of improved) or ``no clear change``. The fixed-seed outputs
of matched runs are compared as numerical drift, for information.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load(directory):
    """{(workload, trace): {seed: result}} from a result directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            r = json.load(fh)
        if {"workload", "seed", "trace", "metrics"} <= set(r):
            out.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, better, bound, wins_share):
    """Verdict of B against A for one metric; see the module docstring."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    gain = sign * (medb - meda)
    if wins_share >= 0.9 and gain > q3a - q1a:
        return "improved"
    if bound is None:
        if 1.0 - wins_share >= 0.9 and -gain > q3a - q1a:
            return "regressed"
        return "no clear change"
    spread = max((q3a - q1a) / abs(meda) if meda else 0.0,
                 (q3b - q1b) / abs(medb) if medb else 0.0)
    if spread > bound:
        all_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
        return "improved" if all_better else "unresolved"
    if -gain > bound * abs(meda):
        return "regressed"
    return "within bound"


def _pairs(side_a, side_b):
    seeds = sorted(set(side_a) & set(side_b))
    if seeds:
        return [(side_a[s], side_b[s]) for s in seeds]
    return list(zip((side_a[s] for s in sorted(side_a)), (side_b[s] for s in sorted(side_b))))


def _drift(ra, rb):
    fa, fb = ra.get("fixed_output") or {}, rb.get("fixed_output") or {}
    if "first_epoch_critic_loss" in fa and "first_epoch_critic_loss" in fb:
        return abs(fa["first_epoch_critic_loss"] - fb["first_epoch_critic_loss"])
    if "scenario0_scores" in fa and "scenario0_scores" in fb:
        return max(abs(x - y) for x, y in zip(fa["scenario0_scores"], fb["scenario0_scores"]))
    return None


def compare(dir_a, dir_b, benchmark_path):
    with open(benchmark_path) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = load(dir_a), load(dir_b)
    keys = sorted(set(runs_a) & set(runs_b))
    if not keys:
        print(f"no workload has results in both {dir_a} and {dir_b}")
        return 1
    print("workload | trace | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | "
          "change | B wins | verdict")
    for workload, trace in keys:
        side_a, side_b = runs_a[(workload, trace)], runs_b[(workload, trace)]
        pairs = _pairs(side_a, side_b)
        names = [n for n in next(iter(side_a.values()))["metrics"] if n in info]
        for name in names:
            a = [r["metrics"][name]["value"] for r in side_a.values()]
            b = [r["metrics"][name]["value"] for r in side_b.values()]
            m = info[name]
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(sign * (rb["metrics"][name]["value"] - ra["metrics"][name]["value"]) > 0
                       for ra, rb in pairs)
            share = wins / len(pairs)
            (q1a, meda, q3a), (q1b, medb, q3b) = quartiles(a), quartiles(b)
            change = f"{100.0 * (medb - meda) / abs(meda):+.1f}%" if meda else "n/a"
            print(f"{workload} | {trace} | {name} | {meda:.5g} [{q1a:.5g}, {q3a:.5g}] ({len(a)}) | "
                  f"{medb:.5g} [{q1b:.5g}, {q3b:.5g}] ({len(b)}) | {change} | "
                  f"{wins}/{len(pairs)} | {verdict(a, b, m['better'], m.get('bound'), share)}")
        drifts = [d for d in (_drift(ra, rb) for ra, rb in pairs) if d is not None]
        if drifts:
            print(f"{workload} | {trace} | drift of fixed-seed outputs (max abs) | "
                  f"{max(drifts):.3g} over {len(drifts)} seed pairs")
    return 0

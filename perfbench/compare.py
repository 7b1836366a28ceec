"""Compare two sets of benchmark runs: parent commit against a change.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds one file per run: the run's captured standard
output, whose last two lines are the run record and the result.  For every (workload, metric) the report
gives each side's median and quartiles, the change's median as a ratio
of the parent's (the base is printed with it), and a verdict:

* ``better`` / ``worse`` — the change wins (loses) at least 9 of every
  10 pairs, ties counting for neither, and the medians differ by more
  than the parent's interquartile range;
* ``worse`` also when the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``unchanged`` — otherwise.

Runs pair by seed when both sides ran the same seeds, else by order.
The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load_run(path: str) -> Tuple[dict, dict]:
    """(record, result) of one run's captured standard output."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    prefix = "run record: "
    if len(lines) < 2 or not lines[-2].startswith(prefix):
        raise SystemExit(f"error: {path} does not end in a run record and a result")
    return json.loads(lines[-2][len(prefix):]), json.loads(lines[-1])


def load_set(directory: str) -> Dict[Tuple[str, int], List[Tuple[int, dict]]]:
    """Runs grouped by (workload, trace): a list of (seed, metrics)."""
    runs: Dict[Tuple[str, int], List[Tuple[int, dict]]] = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        record, result = load_run(path)
        key = (record.get("workload", "?"), int(record.get("trace", 0)))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(key, []).append((int(record.get("seed", 0)), metrics))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair(parent: List[Tuple[int, dict]], change: List[Tuple[int, dict]]):
    parent_seeds = {seed for seed, _ in parent}
    if parent_seeds == {seed for seed, _ in change} and len(parent_seeds) == len(parent):
        by_seed = dict(change)
        return [(metrics, by_seed[seed]) for seed, metrics in parent]
    return list(zip((m for _, m in parent), (m for _, m in change)))


def verdict(pairs: List[Tuple[float, float]], better: str, bound: float) -> Tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    need = 0.9 * len(pairs)
    gain = sign * (cm - pm)  # positive: the change is better
    stats = {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "ratio": cm / pm if pm else float("nan"),
        "base": pm,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
    }
    if wins >= need and gain > iqr:
        return "better", stats
    if (losses >= need and -gain > iqr) or (pm and -gain / abs(pm) > bound):
        return "worse", stats
    beats_all = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if pm and iqr / abs(pm) > bound and not beats_all:
        return "unresolved", stats
    return "unchanged", stats


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load_set(args.parent), load_set(args.change)
    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    any_worse = False
    print(f"{'workload':16} {'metric':40} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'change/parent':>22} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        pairs_by_run = pair(parent[key], change[key])
        for name in sorted({n for run, _ in pairs_by_run for n in run}):
            info = metric_specs.get(name, {"better": "lower"})
            values = [(p[name], c[name]) for p, c in pairs_by_run if name in p and name in c]
            if not values:
                continue
            result, stats = verdict(values, info["better"], info.get("bound", float("inf")))
            any_worse |= result == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload + (' (trace)' if trace else ''):16} {name:40} "
                f"{fmt.format(*stats['parent']):>30} {fmt.format(*stats['change']):>30} "
                f"{stats['ratio']:>8.3f} of {stats['base']:<10.4g} "
                f"{stats['wins']:>2}/{stats['pairs']:<3}  {result}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

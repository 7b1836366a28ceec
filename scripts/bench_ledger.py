#!/usr/bin/env python
"""Perf ledger: fold saved ``perfbench/run.py`` outputs into ``BENCH_<workload>.json``.

Usage (from the repository root)::

    python3 scripts/bench_ledger.py RUNS_DIR [--label NAME] [--out benchmarks/results]

``RUNS_DIR`` holds one file per run: the run's captured standard output,
whose last two lines are the run record and the result (the format
``perfbench/compare.py`` reads).  Untraced runs are grouped by workload;
traced runs carry per-layer metrics only and are skipped.  For each
workload the script writes one ledger entry to
``<out>/BENCH_<workload>.json``:

* the run record: git SHA, ``src/`` digest, ``nproc``, Python version and
  the seeds that ran;
* the runs, attempted and failed operations summed over them;
* for each end-to-end metric its unit, median and quartiles (times are
  in perfbench's reference seconds).

A ledger file is a list of entries, one per ``src/`` digest: writing an
entry replaces the one with the same digest and keeps the others, so
one file holds a change's before and after.  Runs of one workload must
all come from the same code, or the script refuses them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PREFIX = "run record: "


def load_run(path: str) -> Tuple[dict, dict]:
    """(record, result) of one run's captured standard output."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(RECORD_PREFIX):
        raise SystemExit(f"error: {path} does not end in a run record and a result")
    return json.loads(lines[-2][len(RECORD_PREFIX):]), json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), with the same rule ``perfbench/compare.py`` uses."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ledger_entry(runs: List[Tuple[dict, dict]], label: str = "") -> dict:
    """One ledger entry from the (record, result) pairs of one workload."""
    records = [record for record, _ in runs]
    for field in ("src_digest", "git_sha"):
        seen = sorted({str(record.get(field)) for record in records})
        if len(seen) != 1:
            raise SystemExit(f"error: runs mix {field} values {seen}")
    first = records[0]
    metrics: Dict[str, dict] = {}
    for name in sorted({n for _, result in runs for n in result["metrics"]}):
        values = [r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": runs[0][1]["metrics"].get(name, {}).get("unit", ""),
            "q1": q1,
            "median": median,
            "q3": q3,
        }
    return {
        "label": label,
        "record": {
            "git_sha": first.get("git_sha"),
            "src_digest": first.get("src_digest"),
            "nproc": first.get("nproc"),
            "python": first.get("python"),
            "seeds": sorted(int(record.get("seed", 0)) for record in records),
        },
        "runs": len(runs),
        "attempted": sum(int(result.get("attempted", 0)) for _, result in runs),
        "failed": sum(int(result.get("failed", 0)) for _, result in runs),
        "metrics": metrics,
    }


def collect(runs_dir: str) -> Dict[str, List[Tuple[dict, dict]]]:
    """Untraced runs in *runs_dir*, grouped by workload."""
    by_workload: Dict[str, List[Tuple[dict, dict]]] = {}
    for name in sorted(os.listdir(runs_dir)):
        path = os.path.join(runs_dir, name)
        if not os.path.isfile(path):
            continue
        record, result = load_run(path)
        if int(record.get("trace", 0)):
            continue
        by_workload.setdefault(record.get("workload", "?"), []).append((record, result))
    return by_workload


def write_entry(path: str, entry: dict) -> List[dict]:
    """Add *entry* to the ledger at *path*, replacing any same-digest entry."""
    ledger: List[dict] = []
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as handle:
            ledger = json.load(handle)
    digest = entry["record"]["src_digest"]
    ledger = [e for e in ledger if e["record"]["src_digest"] != digest] + [entry]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ledger


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="write BENCH_<workload>.json ledger entries")
    parser.add_argument("runs_dir")
    parser.add_argument("--label", default="", help="a name for this entry, e.g. parent")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "benchmarks", "results"))
    args = parser.parse_args(argv)
    by_workload = collect(args.runs_dir)
    if not by_workload:
        print(f"error: no untraced runs in {args.runs_dir}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    for workload, runs in sorted(by_workload.items()):
        path = os.path.join(args.out, f"BENCH_{workload}.json")
        entry = ledger_entry(runs, args.label)
        write_entry(path, entry)
        print(f"{path}: {entry['runs']} runs of {entry['record']['src_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

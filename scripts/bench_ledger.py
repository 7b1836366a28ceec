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

A ledger file is an append-only list of entries keyed by (``src/``
digest, label): an entry is added after the others, and a key already in
the file is refused with a non-zero exit before any file is written, so
one change's parent runs never erase the previous change's "after" runs
of the same code.  Runs of one workload must all come from the same
code, or the script refuses them.

A performance claim rests on two independent batches.  Each batch runs
the parent and the change interleaved, ten pairs on the same seeds, and
is judged by ``perfbench/compare.py``; the claimed metric must read
``better`` in both.  Both batches are ledgered, each side under its own
label (for example ``before: ... (batch 1)`` and ``after: ... (batch
1)``), so the ledger keeps every run a claim rests on.  One batch alone
is not enough: two back-to-back batches of the same two trees on a
shared 2-core box have read 1.034x and 0.968x.
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


def load_ledger(path: str) -> List[dict]:
    """The entries of the ledger at *path* (none when it does not exist)."""
    if not os.path.isfile(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def append_entry(ledger: List[dict], entry: dict, path: str) -> List[dict]:
    """*ledger* with *entry* appended; a (digest, label) key already in it
    is refused."""
    key = (entry["record"]["src_digest"], entry["label"])
    if any((e["record"]["src_digest"], e["label"]) == key for e in ledger):
        raise SystemExit(
            f"error: {path} already holds digest {key[0]} labelled {key[1]!r}; "
            "ledger entries are never rewritten, give the runs a new label"
        )
    return ledger + [entry]


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
    # every entry is checked before any file is written
    ledgers = {}
    for workload, runs in sorted(by_workload.items()):
        path = os.path.join(args.out, f"BENCH_{workload}.json")
        entry = ledger_entry(runs, args.label)
        ledgers[path] = (append_entry(load_ledger(path), entry, path), entry)
    os.makedirs(args.out, exist_ok=True)
    for path, (ledger, entry) in ledgers.items():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{path}: {entry['runs']} runs of {entry['record']['src_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

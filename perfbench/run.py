"""The repo benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-matrix --seed 1 --seconds 15 --trace 0

The run pins its environment (no ``CAQR_*`` knob, fixed hash seed, one
BLAS thread), then starts ``worker.py`` in a fresh process.  ``setup_s``
is the time from its launch to ``ready``; the worker then measures.
The last line of standard
output is the JSON result: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``.  The line before it records the run (source digest, git
SHA when there is one, nproc, Python, seed); ``compare.py`` reads both
lines from the saved standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

from speed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 170.0


def pinned_env() -> Dict[str, str]:
    """The parent environment without any ``CAQR_*`` knob, plus pins.

    ``CAQR_CACHE_DIR`` matters most: persisted portfolio win-rate state
    would re-order lanes from one run to the next.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAQR_")}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def source_digest() -> str:
    """sha256 over ``src/``: names the code even where there is no git metadata."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def start_worker(args, env, deadline: float):
    """Launch the worker; return it with its launch and ready instants."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    begin = time.perf_counter()
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    line = worker.stdout.readline().strip()
    ready = time.perf_counter()
    if line != "ready" or ready > deadline:
        stop(worker)
        raise SystemExit(f"error: worker did not get ready in time (said {line!r})")
    return worker, begin, ready


def stop(worker) -> None:
    worker.terminate()
    try:
        worker.wait(timeout=20)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="CaQR repo benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no src/repro package next to perfbench/", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = pinned_env()
    # set-up is timed in reference seconds too, from samples of its own
    speed = HostSpeed()
    try:
        worker, begin, ready = start_worker(args, env, deadline)
        speed.stop()
    finally:
        speed.close()
    setup_wall_s = ready - begin
    setup_s = setup_wall_s * speed.scale(begin, ready)
    try:
        out, _ = worker.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(worker)
        print("error: the run overran its time limit", file=sys.stderr)
        return 3
    if worker.returncode != 0 or not out.strip():
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 3
    raw = json.loads(out.strip().splitlines()[-1])

    raw["metrics"]["setup_s"] = setup_s
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": raw["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_digest": source_digest(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "setup_wall_s": setup_wall_s,
        "samples": raw.get("samples", {}),
        "errors": raw.get("errors", []),
    }
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers for the experiment benchmarks.

Every bench regenerates one of the paper's tables or figures: it computes
the data (timed through pytest-benchmark), prints the paper-style table or
series, and archives the text under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# the legacy (reference) arms import their engines from tests/oracles.py
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def emit(name: str, text: str) -> None:
    """Print an experiment report and archive it under results/."""
    banner = "=" * 72
    print(f"\n{banner}\n{name}\n{banner}\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def once(benchmark, func):
    """Run *func* exactly once under the benchmark timer; return its value."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

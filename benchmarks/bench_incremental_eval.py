"""Incremental evaluation engine: speedup over the from-scratch sweep.

The tentpole claim: one shared DAG + bitset cache, batched candidate
costs, and the closure-free lookahead make the Fig. 13-style greedy
sweep several times faster than re-analysing the circuit every step (the
``ReferenceQSCaQR`` oracle in ``tests/oracles.py``) — while selecting the
*identical* pair sequence (pinned here and, across hundreds of random
circuits, in ``tests/property/test_equivalence_diff.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_incremental_eval.py``.
"""

import time

from conftest import emit, once

from repro.analysis import format_table
from repro.core import QSCaQR
from repro.workloads import bv_circuit
from tests.oracles import ReferenceQSCaQR

# the acceptance bar: the incremental engine must beat the reference by
# at least this factor on the 40-qubit sweep (measured ~4x in CI-class
# containers; the bar leaves headroom for noisy machines)
MIN_SPEEDUP = 3.0
HEADLINE_WIDTH = 40
SCALING_WIDTHS = [16, 24, 32, 40]


def _time_sweep(circuit, engine=QSCaQR):
    compiler = engine()
    start = time.perf_counter()
    points = compiler.sweep(circuit)
    return time.perf_counter() - start, points, compiler.stats


def _measure():
    rows = []
    headline = None
    for width in SCALING_WIDTHS:
        circuit = bv_circuit(width)
        t_inc, inc_points, stats = _time_sweep(circuit)
        t_ref, ref_points, _ = _time_sweep(circuit, ReferenceQSCaQR)
        assert [p.pairs for p in inc_points] == [p.pairs for p in ref_points], (
            f"engines diverged on bv({width})"
        )
        speedup = t_ref / t_inc
        steps = stats.counters.get("steps", 0) or 1
        rows.append(
            [
                width,
                inc_points[-1].qubits,
                round(t_ref, 2),
                round(t_inc, 2),
                f"{speedup:.1f}x",
                f"{1000 * stats.timers.get('score', 0.0) / steps:.1f}",
                f"{1000 * stats.timers.get('lookahead', 0.0) / steps:.1f}",
                stats.counters.get("parallel_batches", 0),
            ]
        )
        if width == HEADLINE_WIDTH:
            headline = (speedup, stats)
    return rows, headline


def test_incremental_eval_speedup(benchmark):
    rows, headline = once(benchmark, _measure)
    speedup, stats = headline
    table = format_table(
        [
            "qubits",
            "floor",
            "reference_s",
            "incremental_s",
            "speedup",
            "score_ms/step",
            "lookahead_ms/step",
            "par_batches",
        ],
        rows,
    )
    emit(
        "incremental_eval",
        table + "\n\nheadline stats: " + stats.summary(),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental engine only {speedup:.1f}x faster on "
        f"bv({HEADLINE_WIDTH}) (need >= {MIN_SPEEDUP}x)"
    )

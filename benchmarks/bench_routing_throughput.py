"""Routing stack: end-to-end SR-CaQR throughput, old arms vs. new.

The tentpole claim: the vectorised scoring kernels, the shared distance
caches, the incremental slack scheduler, and the bitset reuse-potential
lookahead rebuild the router for throughput *without changing a single
output circuit*.  Both arms therefore compile the same workloads and the
results are pinned — swap count, reuse count, qubit usage, duration, and
a fingerprint of the full instruction stream — against the values the
pre-optimisation router produced.

Arms:

* **legacy** — the from-scratch reference scheduler
  (``ReferenceSRCaQR``) with the networkx lookahead kernel
  (``nx_lookahead_kernel()``), both from ``tests/oracles.py``: the
  pre-optimisation hot path.
* **optimized** — the defaults: incremental scheduler + bitset kernel.
* **parallel** — the optimized router with the trial grid fanned over the
  process pool, to pin the seed-keyed reduction against the same
  baselines.

Gate: >= 3x end-to-end on bv(40) at trials=3 with QS assistance.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_routing_throughput.py``.
"""

import contextlib
import hashlib
import time

from conftest import emit, once

from repro.analysis import format_table
from repro.core import SRCaQR, SRCaQRCommuting
from repro.hardware import generic_backend, grid, ibm_mumbai
from repro.workloads import bv_circuit, random_graph
from tests.oracles import ReferenceSRCaQR, nx_lookahead_kernel

# acceptance bar (measured ~7x for bv40 and ~5x for QAOA-64 in CI-class
# containers; 3x leaves margin)
MIN_SPEEDUP = 3.0
TRIALS = 3

# pinned pre-PR compilation results: the optimisations must not move them
BV40_BASELINE = {
    "swaps": 0,
    "reuses": 36,
    "qubits": 4,
    "duration": 244816,
    "fingerprint": "d08e645574d1cacd",
}
QAOA64_BASELINE = {
    "swaps": 342,
    "qubits": 49,
    "duration": 863255,
    "fingerprint": "2268ee16e5ec5edd",
}


def _fingerprint(circuit):
    payload = "\n".join(map(str, circuit.data)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _kernel(legacy):
    """The lookahead kernel of one arm (the legacy arm runs networkx)."""
    return nx_lookahead_kernel() if legacy else contextlib.nullcontext()


def _bv40_run(legacy, parallel=False):
    with _kernel(legacy):
        router = (ReferenceSRCaQR if legacy else SRCaQR)(
            ibm_mumbai(),
            parallel=parallel,
            max_workers=2 if parallel else None,
        )
        start = time.perf_counter()
        result = router.run(bv_circuit(40), trials=TRIALS, qs_assist=True)
        elapsed = time.perf_counter() - start
    observed = {
        "swaps": result.swap_count,
        "reuses": result.reuse_count,
        "qubits": result.qubits_used,
        "duration": result.duration_dt,
        "fingerprint": _fingerprint(result.circuit),
    }
    return elapsed, observed, router.stats


def _qaoa64_run(legacy):
    with _kernel(legacy):
        backend = generic_backend(grid(8, 8), seed=5)
        compiler = SRCaQRCommuting(backend, parallel=False)
        if legacy:
            compiler.router = ReferenceSRCaQR(backend, parallel=False)
        start = time.perf_counter()
        result = compiler.run(random_graph(64, 0.08, seed=7))
        elapsed = time.perf_counter() - start
    observed = {
        "swaps": result.swap_count,
        "qubits": result.qubits_used,
        "duration": result.duration_dt,
        "fingerprint": _fingerprint(result.circuit),
    }
    return elapsed, observed, compiler.stats


def _measure():
    # bv(40): the paper's headline swap-free workload, QS-assisted
    t_legacy, legacy, _ = _bv40_run(legacy=True)
    t_fast, fast, fast_stats = _bv40_run(legacy=False)
    t_par, par, _ = _bv40_run(legacy=False, parallel=True)
    for name, observed in (("legacy", legacy), ("optimized", fast), ("parallel", par)):
        assert observed == BV40_BASELINE, (
            f"bv40 {name} arm diverged from the pinned baseline: {observed}"
        )
    bv_speedup = t_legacy / t_fast

    # QAOA-64: the commuting pipeline on an 8x8 grid device
    tq_legacy, q_legacy, _ = _qaoa64_run(legacy=True)
    tq_fast, q_fast, q_stats = _qaoa64_run(legacy=False)
    for name, observed in (("legacy", q_legacy), ("optimized", q_fast)):
        assert observed == QAOA64_BASELINE, (
            f"qaoa64 {name} arm diverged from the pinned baseline: {observed}"
        )
    qaoa_speedup = tq_legacy / tq_fast

    rows = [
        [
            "bv40/ibm_mumbai",
            round(t_legacy, 2),
            round(t_fast, 2),
            round(t_par, 2),
            f"{bv_speedup:.1f}x",
            fast["fingerprint"],
        ],
        [
            "qaoa64/grid8x8",
            round(tq_legacy, 2),
            round(tq_fast, 2),
            "-",
            f"{qaoa_speedup:.1f}x",
            q_fast["fingerprint"],
        ],
    ]
    return rows, bv_speedup, qaoa_speedup, fast_stats, q_stats


def test_routing_throughput(benchmark):
    rows, bv_speedup, qaoa_speedup, bv_stats, qaoa_stats = once(
        benchmark, _measure
    )
    table = format_table(
        ["workload", "legacy_s", "optimized_s", "parallel_s", "speedup", "fingerprint"],
        rows,
    )
    emit(
        "routing_throughput",
        table
        + "\n\nbv40 optimized stats: "
        + bv_stats.summary()
        + "\nqaoa64 optimized stats: "
        + qaoa_stats.summary(),
    )
    assert bv_speedup >= MIN_SPEEDUP, (
        f"optimized router only {bv_speedup:.1f}x faster on bv40 @ "
        f"trials={TRIALS} (need >= {MIN_SPEEDUP}x)"
    )
    assert qaoa_speedup >= MIN_SPEEDUP, (
        f"optimized router only {qaoa_speedup:.1f}x faster on QAOA-64 "
        f"(need >= {MIN_SPEEDUP}x)"
    )

"""Simulation engines: throughput over the reference trajectory loop.

The tentpole claim: on the circuits CaQR actually emits — dynamic
circuits full of mid-circuit measurement and reset — the branch-tree
engine turns per-shot statevector evolution into per-branch evolution,
and the batched engine vectorises noisy trajectories, so the heavy
recurring workloads (Table 3 TVD, Fig. 15-16 convergence, the nightly
differential pool) stop being dominated by the shot loop.

Gate: >= 5x on a QS-CaQR'd bv(16) circuit at 4096 shots, with seeded
noiseless counts *identical* to the reference and noisy marginals within
TVD 0.02 (per clbit — the full 2^15-outcome distribution cannot be
compared at achievable shot counts).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_sim_throughput.py``.
"""

import time

from conftest import emit, once

from repro.analysis import format_table
from repro.core import QSCaQR
from repro.sim import NoiseModel, run_counts
from repro.stats import Stats
from repro.workloads import bv_circuit

# acceptance bar (measured ~300x for the branch tree and ~40x for the
# batched engine in CI-class containers; 5x leaves a wide margin)
MIN_SPEEDUP = 5.0
BV_WIDTH = 16
SHOTS = 4096
SEED = 2
NOISE = NoiseModel.uniform(
    one_qubit_error=0.005, two_qubit_error=0.02, readout=0.01
)
MAX_MARGINAL_TVD = 0.02


def _timed_counts(circuit, engine, noise=None):
    stats = Stats()
    start = time.perf_counter()
    counts = run_counts(
        circuit, shots=SHOTS, seed=SEED, noise=noise, engine=engine, stats=stats
    )
    return time.perf_counter() - start, counts, stats


def _clbit_marginals(counts, num_clbits):
    shots = sum(counts.values())
    ones = [0.0] * num_clbits
    for key, value in counts.items():
        for position, bit in enumerate(key):
            if bit == "1":
                ones[position] += value
    return [count / shots for count in ones]


def _measure():
    circuit = QSCaQR().sweep(bv_circuit(BV_WIDTH))[-1].circuit

    # noiseless: reference loop vs branch tree, counts must be identical
    t_reference, reference_counts, _ = _timed_counts(circuit, "reference")
    t_tree, tree_counts, tree_stats = _timed_counts(circuit, "branchtree")
    assert tree_counts == reference_counts, (
        "branch-tree counts diverged from the reference loop"
    )
    tree_speedup = t_reference / t_tree

    # noisy: reference loop vs batched trajectories, marginals must agree
    t_noisy_reference, noisy_reference, _ = _timed_counts(
        circuit, "reference", noise=NOISE
    )
    t_batch, batch_counts, batch_stats = _timed_counts(
        circuit, "batch", noise=NOISE
    )
    batch_speedup = t_noisy_reference / t_batch
    reference_marginals = _clbit_marginals(noisy_reference, circuit.num_clbits)
    batch_marginals = _clbit_marginals(batch_counts, circuit.num_clbits)
    marginal_tvd = max(
        abs(a - b) for a, b in zip(reference_marginals, batch_marginals)
    )

    rows = [
        [
            "noiseless",
            "branchtree",
            round(t_reference, 2),
            round(t_tree, 3),
            f"{tree_speedup:.1f}x",
            "exact",
        ],
        [
            "noisy",
            "batch",
            round(t_noisy_reference, 2),
            round(t_batch, 3),
            f"{batch_speedup:.1f}x",
            f"{marginal_tvd:.4f}",
        ],
    ]
    return rows, tree_speedup, batch_speedup, marginal_tvd, tree_stats, batch_stats


def test_sim_throughput(benchmark):
    rows, tree_speedup, batch_speedup, marginal_tvd, tree_stats, batch_stats = (
        once(benchmark, _measure)
    )
    table = format_table(
        ["mode", "engine", "reference_s", "engine_s", "speedup", "fidelity"],
        rows,
    )
    emit(
        "sim_throughput",
        table
        + "\n\nbranchtree stats: "
        + tree_stats.summary()
        + "\nbatch stats: "
        + batch_stats.summary(),
    )
    assert tree_speedup >= MIN_SPEEDUP, (
        f"branch tree only {tree_speedup:.1f}x faster on "
        f"bv({BV_WIDTH}) @ {SHOTS} shots (need >= {MIN_SPEEDUP}x)"
    )
    assert batch_speedup >= MIN_SPEEDUP, (
        f"batched engine only {batch_speedup:.1f}x faster under noise "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert marginal_tvd < MAX_MARGINAL_TVD, (
        f"noisy per-clbit marginal TVD {marginal_tvd:.4f} exceeds "
        f"{MAX_MARGINAL_TVD}"
    )

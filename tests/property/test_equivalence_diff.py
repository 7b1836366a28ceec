"""Differential harness: QS-CaQR vs. the from-scratch reference oracle.

Every CaQR transform the session-driven evaluation engine performs must be
*indistinguishable* from the brute-force path it replaces
(``ReferenceQSCaQR`` in ``tests/oracles.py``):

* the greedy sweep picks the exact same reuse-pair sequence,
* every intermediate circuit is instruction-identical,
* the final circuit's output distribution matches the original circuit's
  (the transform-correctness half, via :mod:`repro.sim.verify`).

The harness drives ``CAQR_DIFF_SAMPLES`` random circuits (default 200,
override via the environment for nightly runs) through both engines and
fails loudly on the first divergence, printing the offending seed so the
case can be replayed in isolation.
"""

import os

import pytest

from repro.circuit.random import random_circuit
from repro.core.qs_caqr import QSCaQR
from repro.sim.verify import distributions_tvd
from repro.workloads.bv import bv_circuit
from tests.oracles import ReferenceQSCaQR

DIFF_SAMPLES = int(os.environ.get("CAQR_DIFF_SAMPLES", "200"))

# simulating every sample is too slow for the fast split; every SIM_STRIDE-th
# final circuit also gets the distribution check against the original
SIM_STRIDE = 10


def _sample_circuit(seed: int):
    """Small but structurally diverse circuits: 3-6 qubits, mixed gate
    pools, with and without terminal measurements."""
    num_qubits = 3 + seed % 4
    num_gates = 6 + (seed * 7) % 12
    return random_circuit(
        num_qubits,
        num_gates=num_gates,
        seed=seed,
        two_qubit_fraction=0.35 + 0.3 * ((seed // 4) % 2),
        measure=seed % 3 != 0,
    )


def _assert_engines_agree(circuit, seed, objective="depth", check_sim=False):
    fast = QSCaQR(objective=objective).sweep(circuit)
    slow = ReferenceQSCaQR(objective=objective).sweep(circuit)
    context = f"seed={seed} objective={objective}"
    assert len(fast) == len(slow), f"sweep length diverged ({context})"
    for step, (a, b) in enumerate(zip(fast, slow)):
        assert a.pairs == b.pairs, (
            f"pair sequence diverged at step {step} ({context}): "
            f"{a.pairs} != {b.pairs}"
        )
        assert a.circuit.data == b.circuit.data, (
            f"materialised circuit diverged at step {step} ({context})"
        )
        assert (a.qubits, a.depth) == (b.qubits, b.depth), context
    # unmeasured circuits have nothing to sample; reuse still appends its
    # own clbits, so compare only when the original defines a distribution
    if check_sim and fast[-1].pairs and circuit.num_clbits > 0:
        tvd = distributions_tvd(
            circuit, fast[-1].circuit, shots=400, seed=17
        )
        assert tvd < 0.25, (
            f"maximal-reuse circuit distribution drifted ({context}): "
            f"tvd={tvd:.3f}"
        )


@pytest.mark.parametrize("seed", range(DIFF_SAMPLES))
def test_random_circuit_differential(seed):
    circuit = _sample_circuit(seed)
    _assert_engines_agree(
        circuit, seed, check_sim=seed % SIM_STRIDE == 0
    )


@pytest.mark.parametrize("seed", range(0, DIFF_SAMPLES, 5))
def test_random_circuit_differential_duration(seed):
    _assert_engines_agree(_sample_circuit(seed), seed, objective="duration")


def test_bv_differential_both_objectives():
    circuit = bv_circuit(8)
    for objective in ("depth", "duration"):
        _assert_engines_agree(circuit, seed="bv8", objective=objective)


@pytest.mark.slow
def test_large_bv_differential():
    """Nightly-scale instance: a full 16-qubit Fig. 13-style sweep
    through both engines, both objectives."""
    circuit = bv_circuit(16)
    _assert_engines_agree(circuit, seed="bv16")
    _assert_engines_agree(circuit, seed="bv16", objective="duration")


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(DIFF_SAMPLES, DIFF_SAMPLES + 40))
def test_random_circuit_differential_extended(seed):
    """Nightly-only extension of the sample pool past the fast split."""
    _assert_engines_agree(_sample_circuit(seed), seed, check_sim=seed % SIM_STRIDE == 0)


def test_reduce_to_differential():
    for seed in range(0, 40, 3):
        circuit = _sample_circuit(seed)
        limit = max(2, circuit.num_qubits - 2)
        fast = QSCaQR().reduce_to(circuit, limit)
        slow = ReferenceQSCaQR().reduce_to(circuit, limit)
        assert fast.feasible == slow.feasible, seed
        assert fast.pairs == slow.pairs, seed
        assert fast.circuit.data == slow.circuit.data, seed


def test_forced_parallel_path_matches_serial(two_workers):
    """Force the process pool below the workload thresholds, and pin its
    pair choices against the serial path."""
    circuit = bv_circuit(10)
    parallel = QSCaQR(parallel=True)
    serial = QSCaQR(parallel=False)
    fast = parallel.sweep(circuit)
    slow = serial.sweep(circuit)
    assert [p.pairs for p in fast] == [p.pairs for p in slow]
    assert all(a.circuit.data == b.circuit.data for a, b in zip(fast, slow))
    assert parallel.stats.counters.get("parallel_batches", 0) > 0
    assert serial.stats.counters.get("parallel_batches", 0) == 0

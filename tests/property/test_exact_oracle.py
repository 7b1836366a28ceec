"""Differential harness: greedy engines vs. the exact reuse oracle.

:class:`~repro.core.exact.ExactReuse` solves qubit reuse to proven
optimality on small circuits, which turns it into ground truth for every
greedy engine: QS-CaQR (either evaluation engine) must never *beat* the
oracle, the oracle must never *lose* to any greedy engine, and its
transformed circuit must stay observationally equivalent to the input.

The pool mirrors the cache-roundtrip harness (mixed widths, gate
densities, with and without terminal measurements) but reaches up to 8
qubits — the oracle's practical sweet spot.  ``CAQR_ORACLE_SAMPLES``
scales the pool (default 200; the nightly ``oracle-diff`` CI job runs
500), and ``CAQR_ORACLE_GAP_JSON`` makes the gap-distribution test write
its summary as a JSON artifact for trend tracking.
"""

import json
import os

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import ghz
from repro.circuit.random import random_circuit
from repro.core.exact import ExactReuse, exact_minimum_qubits
from repro.core.qs_caqr import QSCaQR
from repro.core.sr_caqr import SRCaQR
from repro.hardware import ibm_mumbai
from repro.sim.verify import assert_equivalent
from repro.workloads import bv_circuit
from tests.oracles import ReferenceQSCaQR

ORACLE_SAMPLES = int(os.environ.get("CAQR_ORACLE_SAMPLES", "200"))


def _sample_circuit(seed: int) -> QuantumCircuit:
    """3-8 qubits, mixed densities, with and without measurements."""
    num_qubits = 3 + seed % 6
    num_gates = 6 + (seed * 7) % 14
    return random_circuit(
        num_qubits,
        num_gates=num_gates,
        seed=seed,
        two_qubit_fraction=0.35 + 0.3 * ((seed // 4) % 2),
        measure=seed % 3 != 0,
    )


def _reuse_chain(length: int) -> QuantumCircuit:
    """A CX ladder: qubit i feeds i+1, then everyone is measured.

    Each qubit is dead as soon as its successor has consumed it, so two
    wires suffice regardless of length — a hand-checkable optimum.
    """
    circuit = QuantumCircuit(length, length)
    for i in range(length - 1):
        circuit.cx(i, i + 1)
    for i in range(length):
        circuit.measure(i, i)
    return circuit


# -- the oracle vs. QS-CaQR, across the whole pool -----------------------------


@pytest.mark.parametrize("seed", range(ORACLE_SAMPLES))
def test_exact_never_worse_than_qs(seed):
    """The oracle proves optimality within budget and never loses to
    the greedy sweep — the acceptance bar of the exact tier."""
    circuit = _sample_circuit(seed)
    result = ExactReuse().run(circuit)
    assert result.optimal, (
        f"seed={seed}: oracle hit its budget on a {circuit.num_qubits}-qubit "
        f"circuit ({result.nodes_expanded} nodes)"
    )
    greedy = QSCaQR().minimum_qubits(circuit)
    assert result.qubits <= greedy, (
        f"seed={seed}: oracle used {result.qubits} qubits, greedy "
        f"reached {greedy} — the 'exact' solver is not exact"
    )
    # the emitted plan must actually materialize at the claimed width
    assert result.circuit.num_qubits == result.qubits, f"seed={seed}"


@pytest.mark.parametrize("seed", range(0, ORACLE_SAMPLES, 2))
def test_qs_engines_never_beat_the_oracle(seed):
    """Both QS evaluation engines are bounded below by the oracle — a
    greedy result under the proven optimum would mean an unsound
    transform (or a broken oracle)."""
    circuit = _sample_circuit(seed)
    optimal = exact_minimum_qubits(circuit)
    for engine in (QSCaQR, ReferenceQSCaQR):
        greedy = engine(parallel=False).minimum_qubits(circuit)
        assert greedy >= optimal, (
            f"seed={seed} {engine.__name__}: greedy claims "
            f"{greedy} < proven optimum {optimal}"
        )


@pytest.mark.parametrize("seed", range(0, ORACLE_SAMPLES, 10))
def test_exact_never_worse_than_sr(seed):
    """SR-CaQR's routed output never goes below the logical optimum."""
    circuit = _sample_circuit(seed)
    optimal = exact_minimum_qubits(circuit)
    routed = SRCaQR(ibm_mumbai(), parallel=False).run(circuit)
    assert routed.qubits_used >= optimal, (
        f"seed={seed}: SR routed onto {routed.qubits_used} qubits, "
        f"below the proven optimum {optimal}"
    )


@pytest.mark.parametrize(
    "seed", [s for s in range(0, ORACLE_SAMPLES, 5) if s % 3 != 0]
)
def test_exact_output_equivalent(seed):
    """The oracle's transformed circuit is observationally equivalent to
    the input (measured samples only — sampling needs clbits)."""
    circuit = _sample_circuit(seed)
    result = ExactReuse().run(circuit)
    assert_equivalent(circuit, result.circuit)


# -- gap distribution ----------------------------------------------------------


def test_gap_distribution():
    """Greedy-vs-optimal gap across the pool: never negative, summarized
    (and optionally exported) for trend tracking."""
    gaps = {}
    for seed in range(0, ORACLE_SAMPLES, 5):
        circuit = _sample_circuit(seed)
        result = ExactReuse().run(circuit)
        assert result.optimal, f"seed={seed}"
        greedy = QSCaQR().minimum_qubits(circuit)
        gap = greedy - result.qubits
        assert gap >= 0, f"seed={seed}: negative gap {gap}"
        gaps[seed] = gap
    values = sorted(gaps.values())
    summary = {
        "samples": len(values),
        "max_gap": values[-1],
        "mean_gap": sum(values) / len(values),
        "nonzero": sum(1 for g in values if g),
        "by_gap": {
            str(g): values.count(g) for g in sorted(set(values))
        },
    }
    artifact = os.environ.get("CAQR_ORACLE_GAP_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    # the greedy heuristic is good: gaps stay small on this pool
    assert summary["max_gap"] <= 2, summary


# -- pinned hand-computable fixtures -------------------------------------------


@pytest.mark.parametrize(
    "circuit,optimal",
    [
        pytest.param(bv_circuit(4), 2, id="bv4"),
        pytest.param(ghz(5, measure=True), 2, id="ghz5"),
        pytest.param(_reuse_chain(5), 2, id="chain5"),
    ],
)
def test_pinned_optima(circuit, optimal):
    result = ExactReuse().run(circuit)
    assert result.optimal
    assert result.qubits == optimal
    assert result.circuit.num_qubits == optimal
    assert_equivalent(circuit, result.circuit)


# (qubits, pairs, optimal, nodes_expanded): widths alone would not show a
# change to the engine's branch order, pruning or state interning
PINNED_RUNS = {
    "bv4": (2, [(0, 1), (0, 1)], True, 5),
    "ghz5": (2, [(0, 2), (0, 3), (1, 2)], True, 14),
    "chain5": (2, [(0, 2), (0, 3), (1, 2)], True, 14),
    0: (2, [(0, 2)], True, 2),
    5: (4, [(0, 1), (0, 3), (1, 3), (4, 1)], True, 814),
    17: (2, [(0, 2), (0, 2), (0, 4), (1, 3), (1, 2), (1, 2)], True, 20033),
    22: (2, [(0, 2), (1, 0), (2, 1), (2, 1), (2, 1)], True, 1290),
    29: (4, [(0, 1), (0, 2), (0, 1), (2, 3)], True, 1177),
    41: (3, [(0, 2), (0, 2), (2, 1), (2, 4), (3, 2)], True, 4161),
    47: (3, [(0, 4), (2, 6), (2, 1), (2, 3), (3, 2)], True, 738),
    53: (3, [(0, 2), (0, 3), (1, 4), (1, 3), (1, 3)], True, 1102),
    58: (2, [(0, 1), (0, 1), (0, 2), (0, 1), (1, 2)], True, 4489),
    64: (2, [(0, 1), (0, 1), (0, 3), (1, 2), (1, 2)], True, 1712),
    70: (3, [(0, 4), (1, 5), (3, 0), (3, 1)], True, 701),
    77: (3, [(0, 1), (0, 2), (0, 4), (1, 0), (3, 2)], True, 4150),
    93: (3, [(0, 3), (2, 0), (3, 0)], True, 147),
    118: (2, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 2)], True, 4567),
}
PINNED_CIRCUITS = {
    "bv4": lambda: bv_circuit(4),
    "ghz5": lambda: ghz(5, measure=True),
    "chain5": lambda: _reuse_chain(5),
}


@pytest.mark.parametrize("case", list(PINNED_RUNS), ids=str)
def test_pinned_search_is_deterministic(case):
    """The whole search outcome is pinned, not just the width: the
    same plan, proof flag and visited-state count on every run."""
    circuit = (
        PINNED_CIRCUITS[case]() if case in PINNED_CIRCUITS else _sample_circuit(case)
    )
    result = ExactReuse().run(circuit)
    got = (
        result.qubits,
        [(p.source, p.target) for p in result.pairs],
        result.optimal,
        result.nodes_expanded,
    )
    assert got == PINNED_RUNS[case]


def test_anytime_budget_returns_best_so_far():
    """A starved node budget still yields a sound (if unproven) plan."""
    circuit = _reuse_chain(8)
    result = ExactReuse(max_nodes=2).run(circuit)
    assert result.optimal is False
    assert 2 < result.qubits <= circuit.num_qubits
    # the fallback plan must still materialize soundly
    assert result.circuit.num_qubits == result.qubits
    assert_equivalent(circuit, result.circuit)


def test_oracle_plan_is_consumable_by_the_transform_layer():
    """The oracle emits the same ReusePair plan the greedy engines use —
    replaying it through apply_reuse_chain reproduces the circuit."""
    from repro.core.transform import apply_reuse_chain

    circuit = bv_circuit(5)
    result = ExactReuse().run(circuit)
    replayed = apply_reuse_chain(circuit, result.pairs)
    assert replayed.num_qubits == result.qubits
    assert replayed.data == result.circuit.data

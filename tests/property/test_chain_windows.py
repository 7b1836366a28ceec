"""Differential harness: the chain engine vs. greedy QS and the oracle.

:class:`~repro.core.chains.ChainReuse` promises three things across
arbitrary circuits: its transformed output stays observationally
equivalent to the input, its width never exceeds the greedy QS sweep
(the greedy guard makes this a hard invariant, not a heuristic hope),
and on oracle-sized circuits it lands on the proven optimum almost
always — the beam is supposed to close most of the greedy-vs-optimal
gap, so the harness pins a >= 95% optimum-match rate.

The pool reuses the exact-oracle recipe (mixed widths, gate densities,
with and without terminal measurements).  ``CAQR_CHAIN_SAMPLES`` scales
it (default 200; the nightly ``chain-diff`` CI job runs 500), and
``CAQR_CHAIN_GAP_JSON`` makes the gap-distribution test write its
summary as a JSON artifact for trend tracking.
"""

import json
import os

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import ghz
from repro.circuit.random import random_circuit
from repro.core.chains import ChainReuse
from repro.core.exact import exact_minimum_qubits
from repro.core.qs_caqr import QSCaQR
from repro.sim.verify import assert_equivalent
from repro.workloads import bv_circuit

CHAIN_SAMPLES = int(os.environ.get("CAQR_CHAIN_SAMPLES", "200"))


def _sample_circuit(seed: int) -> QuantumCircuit:
    """3-8 qubits, mixed densities, with and without measurements —
    the same pool the exact-oracle harness draws from, so the two
    differential tiers stay comparable."""
    num_qubits = 3 + seed % 6
    num_gates = 6 + (seed * 7) % 14
    return random_circuit(
        num_qubits,
        num_gates=num_gates,
        seed=seed,
        two_qubit_fraction=0.35 + 0.3 * ((seed // 4) % 2),
        measure=seed % 3 != 0,
    )


# -- width: never wider than greedy QS ----------------------------------------


@pytest.mark.parametrize("seed", range(CHAIN_SAMPLES))
def test_chain_never_wider_than_greedy_qs(seed):
    """The greedy-guard contract: on every circuit the chain engine's
    width is bounded above by the greedy QS sweep."""
    circuit = _sample_circuit(seed)
    chain = ChainReuse().run(circuit)
    greedy = QSCaQR(parallel=False).minimum_qubits(circuit)
    assert chain.qubits <= greedy, (
        f"seed={seed}: chain reached {chain.qubits} qubits, greedy "
        f"managed {greedy} — the greedy guard is broken"
    )
    # the result is self-consistent: claimed width is the real width,
    # and the floor is a true lower bound on it
    assert chain.circuit.num_qubits == chain.qubits, f"seed={seed}"
    assert chain.qubits >= chain.floor, f"seed={seed}"


# -- soundness: simulator equivalence -----------------------------------------


@pytest.mark.parametrize(
    "seed", [s for s in range(0, CHAIN_SAMPLES, 5) if s % 3 != 0]
)
def test_chain_output_equivalent(seed):
    """The materialised chain circuit is observationally equivalent to
    the input (measured samples only — sampling needs clbits)."""
    circuit = _sample_circuit(seed)
    result = ChainReuse().run(circuit)
    assert_equivalent(circuit, result.circuit)


@pytest.mark.parametrize("seed", range(0, CHAIN_SAMPLES, 10))
def test_dual_register_output_equivalent(seed):
    """The dual-register cost model changes which plan wins, never
    whether the transform is sound."""
    circuit = _sample_circuit(seed)
    if not any(ins.name == "measure" for ins in circuit.data):
        pytest.skip("dual-register equivalence needs sampled outputs")
    result = ChainReuse(dual_register=True).run(circuit)
    assert_equivalent(circuit, result.circuit)


# -- optimality: the oracle match rate ----------------------------------------


def test_chain_matches_oracle_width_on_small_circuits():
    """On oracle-sized circuits the beam finds the proven optimum at
    least 95% of the time — the quality bar that separates 'joint chain
    discovery' from 'greedy with extra steps'."""
    total = 0
    matched = 0
    misses = []
    for seed in range(0, CHAIN_SAMPLES, 2):
        circuit = _sample_circuit(seed)
        if circuit.num_qubits > 10:
            continue
        total += 1
        chain = ChainReuse().minimum_qubits(circuit)
        optimal = exact_minimum_qubits(circuit)
        assert chain >= optimal, (
            f"seed={seed}: chain claims {chain} < proven optimum {optimal}"
        )
        if chain == optimal:
            matched += 1
        else:
            misses.append((seed, chain, optimal))
    assert total > 0
    rate = matched / total
    assert rate >= 0.95, (
        f"chain matched the oracle on {matched}/{total} circuits "
        f"({rate:.1%}); first misses: {misses[:5]}"
    )


# -- gap distribution ----------------------------------------------------------


def test_gap_distribution():
    """Chain-vs-optimal width gap across the pool: never negative,
    summarized (and optionally exported) for trend tracking."""
    gaps = {}
    for seed in range(0, CHAIN_SAMPLES, 5):
        circuit = _sample_circuit(seed)
        chain = ChainReuse().minimum_qubits(circuit)
        optimal = exact_minimum_qubits(circuit)
        gap = chain - optimal
        assert gap >= 0, f"seed={seed}: negative gap {gap}"
        gaps[seed] = gap
    values = sorted(gaps.values())
    summary = {
        "samples": len(values),
        "max_gap": values[-1],
        "mean_gap": sum(values) / len(values),
        "nonzero": sum(1 for g in values if g),
        "by_gap": {str(g): values.count(g) for g in sorted(set(values))},
    }
    artifact = os.environ.get("CAQR_CHAIN_GAP_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    # the beam closes nearly the whole greedy gap on this pool
    assert summary["max_gap"] <= 1, summary


# -- budgeted mode -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, CHAIN_SAMPLES, 20))
def test_reduce_to_respects_feasibility_flag(seed):
    """``reduce_to`` either lands within the budget (feasible) or says
    so honestly — and the budgeted output stays equivalent."""
    circuit = _sample_circuit(seed)
    engine = ChainReuse()
    floor = engine.run(circuit).qubits
    budget = max(floor, 2)
    result = engine.reduce_to(circuit, budget)
    assert result.feasible
    assert result.qubits <= budget
    if any(ins.name == "measure" for ins in circuit.data):
        assert_equivalent(circuit, result.circuit)
    starved = engine.reduce_to(circuit, 1)
    if circuit.num_qubits > 1 and floor > 1:
        assert not starved.feasible
        assert starved.qubits > 1


# -- pinned hand-computable fixtures -------------------------------------------


@pytest.mark.parametrize(
    "circuit,optimal",
    [
        pytest.param(bv_circuit(4), 2, id="bv4"),
        pytest.param(ghz(5, measure=True), 2, id="ghz5"),
    ],
)
def test_pinned_optima(circuit, optimal):
    result = ChainReuse().run(circuit)
    assert result.qubits == optimal
    assert_equivalent(circuit, result.circuit)

"""Branch-tree engine: exactness, suffix sharing, caps, and pruning."""

import pytest

from repro.circuit import QuantumCircuit
from repro.core import QSCaQR
from repro.exceptions import SimulationError
from repro.sim import run_counts
from repro.sim.branchtree import BranchTreeSimulator, run_branch_counts
from repro.stats import Stats
from repro.workloads import bv_circuit


def dynamic_circuit():
    circuit = QuantumCircuit(3, 4)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.x(2).c_if(0, 1)
    circuit.reset(0)
    circuit.ry(0.8, 0)
    circuit.measure(0, 1)
    circuit.measure(1, 2)
    circuit.measure(2, 3)
    return circuit


@pytest.mark.parametrize("seed", [0, 3, 11, 29])
def test_exact_vs_reference(seed):
    circuit = dynamic_circuit()
    reference = run_counts(circuit, shots=800, seed=seed, engine="reference")
    tree = run_counts(circuit, shots=800, seed=seed, engine="branchtree")
    assert tree == reference


def test_exact_on_reuse_circuit():
    circuit = QSCaQR().sweep(bv_circuit(8))[-1].circuit
    reference = run_counts(circuit, shots=600, seed=4, engine="reference")
    tree = run_counts(circuit, shots=600, seed=4, engine="branchtree")
    assert tree == reference


def test_suffix_cache_shares_converging_histories():
    """Both reset outcomes land on the same quantum state, so the suffix
    after the reset is evolved once and the second path is a cache hit."""
    circuit = QuantumCircuit(1, 1)
    circuit.h(0)
    circuit.reset(0)
    circuit.h(0)
    circuit.measure(0, 0)
    stats = Stats()
    counts = run_branch_counts(circuit, 400, seed=2, stats=stats)
    assert sum(counts.values()) == 400
    assert stats.counters.get("suffix_cache_hits", 0) >= 1
    assert stats.rate("suffix_cache_hits", "suffix_cache_misses") > 0


def test_node_cap_fallback_stays_exact():
    circuit = dynamic_circuit()
    reference = run_counts(circuit, shots=500, seed=9, engine="reference")
    stats = Stats()
    capped = run_branch_counts(circuit, 500, seed=9, max_nodes=1, stats=stats)
    assert capped == reference
    assert stats.counters.get("cap_fallback_shots", 0) > 0


def test_state_byte_cap_fallback_stays_exact():
    circuit = dynamic_circuit()
    reference = run_counts(circuit, shots=300, seed=6, engine="reference")
    capped = run_branch_counts(circuit, 300, seed=6, max_state_bytes=1)
    assert capped == reference


def test_pruning_drops_and_logs_mass():
    circuit = QuantumCircuit(1, 2)
    circuit.ry(0.2, 0)  # P(1) ~ 0.01, below the threshold
    circuit.measure(0, 0)
    circuit.h(0)
    circuit.measure(0, 1)
    stats = Stats()
    counts = run_branch_counts(
        circuit, 500, seed=4, prune_threshold=0.05, stats=stats
    )
    # the rare first outcome is redirected onto the dominant branch
    assert all(key[0] == "0" for key in counts)
    dropped = stats.values.get("dropped_mass", 0.0)
    assert 0.0 < dropped < 0.05


def test_pruning_off_by_default():
    circuit = QuantumCircuit(1, 1)
    circuit.ry(0.2, 0)
    circuit.measure(0, 0)
    stats = Stats()
    counts = run_branch_counts(circuit, 4000, seed=1, stats=stats)
    assert counts.get("1", 0) > 0  # rare branch still sampled
    assert "dropped_mass" not in stats.values


def test_invalid_prune_threshold():
    circuit = dynamic_circuit()
    with pytest.raises(SimulationError, match="prune_threshold"):
        BranchTreeSimulator(circuit, prune_threshold=0.7)


def test_lazy_growth_skips_dead_branches():
    """A deterministic 15-measure chain expands one node per measure —
    the dead sibling outcomes are never evolved."""
    circuit = QSCaQR().sweep(bv_circuit(16))[-1].circuit
    stats = Stats()
    counts = run_branch_counts(circuit, 256, seed=5, stats=stats)
    assert sum(counts.values()) == 256
    measures = sum(1 for i in circuit.data if i.name in ("measure", "reset"))
    assert stats.counters["branches_expanded"] <= measures


def test_simulator_reusable_across_batches():
    circuit = dynamic_circuit()
    import random

    simulator = BranchTreeSimulator(circuit)
    first = simulator.sample(300, random.Random(9))
    second = simulator.sample(300, random.Random(9))
    assert first == second  # tree state does not leak between batches


def test_requires_clbits():
    circuit = QuantumCircuit(1, 0)
    circuit.h(0)
    with pytest.raises(SimulationError):
        run_branch_counts(circuit, 10, seed=0)

"""Property-based tests for the simulators."""

import numpy as np
from hypothesis import given, settings

from repro.circuit import QuantumCircuit, gates
from repro.sim import run_counts
from repro.sim.statevector import Statevector
from tests.oracles import exact_distribution
from tests.property.strategies import circuits


class TestStatevectorInvariants:
    @given(circuits(max_qubits=3, max_gates=10))
    @settings(max_examples=30, deadline=None)
    def test_unitary_evolution_preserves_norm(self, circuit):
        state = Statevector(circuit.num_qubits)
        for instruction in circuit.data:
            if instruction.is_unitary():
                state.apply_matrix(
                    gates.gate_matrix(instruction.name, instruction.params),
                    instruction.qubits,
                )
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-9)

    @given(circuits(max_qubits=3, max_gates=8, terminal_measures=True))
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_shots(self, circuit):
        counts = run_counts(circuit, shots=64, seed=1)
        assert sum(counts.values()) == 64
        for key in counts:
            assert len(key) == circuit.num_clbits


class TestDensityCrossValidation:
    @given(circuits(min_qubits=2, max_qubits=2, max_gates=6, terminal_measures=True))
    @settings(max_examples=10, deadline=None)
    def test_sampler_converges_to_exact(self, circuit):
        exact = exact_distribution(circuit)
        counts = run_counts(circuit, shots=8000, seed=5)
        for key in set(exact) | set(counts):
            sampled = counts.get(key, 0) / 8000
            assert abs(sampled - exact.get(key, 0.0)) < 0.04, key

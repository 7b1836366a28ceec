"""Tests for the exact density-matrix simulator, including cross-validation
against the trajectory statevector sampler."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import NoiseModel, run_counts
from tests.oracles import DensityMatrix, exact_distribution


class TestDensityMatrix:
    def test_initial_state_pure_zero(self):
        state = DensityMatrix(2)
        assert state.matrix[0, 0] == 1.0
        assert np.trace(state.matrix) == pytest.approx(1.0)

    def test_apply_x(self):
        state = DensityMatrix(1)
        from repro.circuit.gates import gate_matrix

        state.apply_unitary(gate_matrix("x"), (0,))
        assert state.matrix[1, 1] == pytest.approx(1.0)

    def test_apply_cx_on_superposition(self):
        from repro.circuit.gates import gate_matrix

        state = DensityMatrix(2)
        state.apply_unitary(gate_matrix("h"), (0,))
        state.apply_unitary(gate_matrix("cx"), (0, 1))
        probabilities = state.probabilities()
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[3] == pytest.approx(0.5)

    def test_measurement_probabilities(self):
        from repro.circuit.gates import gate_matrix

        state = DensityMatrix(1)
        state.apply_unitary(gate_matrix("h"), (0,))
        p0, p1 = state.measurement_probabilities(0)
        assert p0 == pytest.approx(0.5)
        assert p1 == pytest.approx(0.5)

    def test_project_renormalises(self):
        from repro.circuit.gates import gate_matrix

        state = DensityMatrix(1)
        state.apply_unitary(gate_matrix("h"), (0,))
        probability = state.project(0, 1)
        assert probability == pytest.approx(0.5)
        assert state.matrix[1, 1] == pytest.approx(1.0)

    def test_depolarizing_mixes(self):
        state = DensityMatrix(1)
        state.apply_depolarizing(0.75, (0,))
        # maximal 1Q depolarizing at p=0.75 yields the maximally mixed state
        assert state.matrix[0, 0] == pytest.approx(0.5)
        assert state.matrix[1, 1] == pytest.approx(0.5)

    def test_trace_preserved_by_channels(self):
        from repro.circuit.gates import gate_matrix

        state = DensityMatrix(2)
        state.apply_unitary(gate_matrix("h"), (0,))
        state.apply_depolarizing(0.1, (0, 1))
        assert np.trace(state.matrix).real == pytest.approx(1.0)

    def test_size_cap(self):
        with pytest.raises(SimulationError):
            DensityMatrix(11)


class TestExactDistribution:
    def test_deterministic_circuit(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        assert exact_distribution(circuit) == {"1": pytest.approx(1.0)}

    def test_bell_distribution(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        distribution = exact_distribution(circuit)
        assert distribution["00"] == pytest.approx(0.5)
        assert distribution["11"] == pytest.approx(0.5)

    def test_conditional_branching(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1).c_if(0, 1)
        circuit.measure(1, 1)
        distribution = exact_distribution(circuit)
        assert distribution["00"] == pytest.approx(0.5)
        assert distribution["11"] == pytest.approx(0.5)

    def test_measure_and_reset_reuse(self):
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure_and_reset(0, 0)
        circuit.measure(0, 1)
        distribution = exact_distribution(circuit)
        assert distribution.get("00", 0) == pytest.approx(0.5)
        assert distribution.get("10", 0) == pytest.approx(0.5)

    def test_readout_error_exact(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        noise = NoiseModel.uniform(readout=0.2)
        distribution = exact_distribution(circuit, noise)
        assert distribution["1"] == pytest.approx(0.2)
        assert distribution["0"] == pytest.approx(0.8)

    def test_requires_clbits(self):
        with pytest.raises(SimulationError):
            exact_distribution(QuantumCircuit(1, 0))


class TestCrossValidation:
    """The trajectory sampler must converge to the exact distribution."""

    def _compare(self, circuit, noise, shots=20000, tolerance=0.02):
        exact = exact_distribution(circuit, noise)
        counts = run_counts(circuit, shots=shots, seed=7, noise=noise)
        for key in set(exact) | set(counts):
            sampled = counts.get(key, 0) / shots
            assert abs(sampled - exact.get(key, 0.0)) < tolerance, key

    def test_noiseless_dynamic_circuit(self):
        circuit = QuantumCircuit(2, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_and_reset(0, 0)
        circuit.h(0)
        circuit.measure(0, 1)
        circuit.measure(1, 2)
        self._compare(circuit, None)

    def test_depolarizing_noise(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        noise = NoiseModel.uniform(two_qubit_error=0.15, readout=0.0)
        self._compare(circuit, noise)

    def test_readout_noise(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        noise = NoiseModel.uniform(readout=0.1)
        self._compare(circuit, noise)

    def test_combined_noise_with_conditional(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1).c_if(0, 1)
        circuit.measure(1, 1)
        noise = NoiseModel.uniform(one_qubit_error=0.05, readout=0.05)
        self._compare(circuit, noise, tolerance=0.025)

"""Tests for distribution and fidelity metrics."""

import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import Calibration, generic_backend, line
from repro.sim import (
    estimated_success_probability,
    hellinger_fidelity,
    normalize_counts,
    success_rate,
    total_variation_distance,
)
from repro.stats import Stats


class TestTVD:
    def test_identical_distributions(self):
        assert total_variation_distance({"0": 0.5, "1": 0.5}, {"0": 0.5, "1": 0.5}) == 0

    def test_disjoint_distributions(self):
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)

    def test_accepts_raw_counts(self):
        assert total_variation_distance({"0": 500, "1": 500}, {"0": 1000}) == \
            pytest.approx(0.5)

    def test_symmetry(self):
        p = {"00": 0.7, "11": 0.3}
        q = {"00": 0.4, "01": 0.6}
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p)
        )

    def test_bounded_by_one(self):
        p = {"a": 0.2, "b": 0.8}
        q = {"c": 0.9, "d": 0.1}
        assert 0 <= total_variation_distance(p, q) <= 1


class TestSuccessAndFidelity:
    def test_success_rate(self):
        assert success_rate({"101": 75, "000": 25}, "101") == 0.75

    def test_success_rate_missing_key(self):
        assert success_rate({"000": 10}, "111") == 0.0

    def test_empty_counts_raise(self):
        with pytest.raises(ValueError):
            success_rate({}, "0")
        with pytest.raises(ValueError):
            normalize_counts({})

    def test_hellinger_identical(self):
        assert hellinger_fidelity({"0": 1.0}, {"0": 2.0}) == pytest.approx(1.0)

    def test_hellinger_disjoint(self):
        assert hellinger_fidelity({"0": 1.0}, {"1": 1.0}) == pytest.approx(0.0)


class TestESP:
    def _backend(self):
        return generic_backend(line(4), seed=5)

    def test_missing_cx_link_scores_the_mean_cx_error(self):
        calibration = Calibration(
            cx_error={frozenset({0, 1}): 0.01, frozenset({1, 2}): 0.03}
        )
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)  # no calibrated (0, 2) link
        stats = Stats()
        esp = estimated_success_probability(
            circuit, calibration, include_decoherence=False, stats=stats
        )
        assert esp == pytest.approx(1.0 - 0.02)
        assert stats.counters["esp_two_qubit_evals"] == 1

    def test_empty_circuit_has_unit_esp(self):
        circuit = QuantumCircuit(2)
        esp = estimated_success_probability(circuit, self._backend().calibration)
        assert esp == pytest.approx(1.0)

    def test_esp_decreases_with_gates(self):
        backend = self._backend()
        short = QuantumCircuit(2)
        short.cx(0, 1)
        long = QuantumCircuit(2)
        for _ in range(10):
            long.cx(0, 1)
        esp_short = estimated_success_probability(short, backend.calibration)
        esp_long = estimated_success_probability(long, backend.calibration)
        assert esp_long < esp_short < 1.0

    def test_swap_costs_three_cx(self):
        backend = self._backend()
        swap_circuit = QuantumCircuit(2)
        swap_circuit.swap(0, 1)
        cx3 = QuantumCircuit(2)
        for _ in range(3):
            cx3.cx(0, 1)
        esp_swap = estimated_success_probability(
            swap_circuit, backend.calibration, include_decoherence=False
        )
        esp_cx3 = estimated_success_probability(
            cx3, backend.calibration, include_decoherence=False
        )
        assert esp_swap == pytest.approx(esp_cx3)

    def test_measurement_readout_counted(self):
        backend = self._backend()
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        esp = estimated_success_probability(
            circuit, backend.calibration, include_decoherence=False
        )
        assert esp == pytest.approx(1 - backend.calibration.get_readout_error(0))

    def test_decoherence_penalises_long_circuits(self):
        backend = self._backend()
        idle = QuantumCircuit(2)
        idle.cx(0, 1)
        idle.delay(500000, 0)
        idle.cx(0, 1)
        tight = QuantumCircuit(2)
        tight.cx(0, 1)
        tight.cx(0, 1)
        esp_idle = estimated_success_probability(idle, backend.calibration)
        esp_tight = estimated_success_probability(tight, backend.calibration)
        assert esp_idle < esp_tight

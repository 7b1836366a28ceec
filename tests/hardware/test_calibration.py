"""Tests for calibration models and the synthetic generator."""

import pytest

from repro.circuit.gates import DEFAULT_DURATIONS
from repro.exceptions import HardwareError
from repro.hardware import (
    Backend,
    Calibration,
    CouplingMap,
    generic_backend,
    ibm_mumbai,
    line,
    synthetic_calibration,
)


class TestSyntheticCalibration:
    def test_every_link_calibrated(self):
        coupling = line(5)
        calibration = synthetic_calibration(coupling, seed=7)
        for a, b in coupling.edges:
            assert 0 < calibration.get_cx_error(a, b) < 1
            assert calibration.get_cx_duration(a, b) > 0

    def test_every_qubit_calibrated(self):
        coupling = line(4)
        calibration = synthetic_calibration(coupling, seed=7)
        for q in range(4):
            assert 0 < calibration.get_readout_error(q) < 1
            assert calibration.get_t1(q) > 0
            assert calibration.get_t2(q) > 0

    def test_deterministic_with_seed(self):
        coupling = line(5)
        a = synthetic_calibration(coupling, seed=11)
        b = synthetic_calibration(coupling, seed=11)
        assert a.cx_error == b.cx_error
        assert a.readout_error == b.readout_error

    def test_different_seeds_differ(self):
        coupling = line(5)
        a = synthetic_calibration(coupling, seed=1)
        b = synthetic_calibration(coupling, seed=2)
        assert a.cx_error != b.cx_error

    def test_errors_within_requested_range(self):
        coupling = line(10)
        calibration = synthetic_calibration(
            coupling, seed=3, cx_error_range=(0.01, 0.02)
        )
        for value in calibration.cx_error.values():
            assert 0.01 <= value <= 0.02

    def test_missing_link_raises(self):
        calibration = synthetic_calibration(line(3), seed=1)
        with pytest.raises(HardwareError):
            calibration.get_cx_error(0, 2)

    def test_best_link(self):
        calibration = synthetic_calibration(line(6), seed=5)
        a, b = calibration.best_link()
        best = calibration.get_cx_error(a, b)
        assert all(best <= err for err in calibration.cx_error.values())

    def test_empty_best_link_raises(self):
        with pytest.raises(HardwareError):
            Calibration().best_link()


class TestInstructionDuration:
    def test_cx_uses_link_duration(self):
        coupling = line(3)
        calibration = synthetic_calibration(coupling, seed=9)
        assert calibration.instruction_duration("cx", (0, 1)) == \
            calibration.get_cx_duration(0, 1)

    def test_swap_is_three_cx(self):
        coupling = line(3)
        calibration = synthetic_calibration(coupling, seed=9)
        assert calibration.instruction_duration("swap", (0, 1)) == \
            3 * calibration.get_cx_duration(0, 1)

    def test_measure_and_reset_durations(self):
        calibration = synthetic_calibration(line(2), seed=9)
        assert calibration.instruction_duration("measure", (0,)) == \
            DEFAULT_DURATIONS["measure"]
        assert calibration.instruction_duration("reset", (0,)) == \
            DEFAULT_DURATIONS["reset"]

    def test_uncalibrated_link_falls_back_to_default(self):
        calibration = synthetic_calibration(line(3), seed=9)
        assert calibration.instruction_duration("cx", (0, 2)) == DEFAULT_DURATIONS["cx"]


class TestBackends:
    def test_generic_backend(self):
        backend = generic_backend(line(4), name="test")
        assert backend.num_qubits == 4
        assert backend.supports_dynamic_circuits

    def test_width_validation(self):
        backend = generic_backend(line(4))
        backend.validate_circuit_width(4)
        with pytest.raises(HardwareError):
            backend.validate_circuit_width(5)

    def test_backend_requires_full_calibration(self):
        coupling = line(3)
        partial = Calibration()
        with pytest.raises(HardwareError):
            Backend("bad", coupling, partial)

    def test_mumbai_properties(self):
        backend = ibm_mumbai()
        assert backend.num_qubits == 27
        assert backend.name == "ibm_mumbai"
        assert backend.supports_dynamic_circuits
        assert backend.coupling.max_degree() == 3

    def test_mumbai_reproducible(self):
        a, b = ibm_mumbai(), ibm_mumbai()
        assert a.calibration.cx_error == b.calibration.cx_error

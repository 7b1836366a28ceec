"""Tests for GHZ under reuse and the bundled QASM assets."""

import pytest

from repro.circuit.library import ghz
from repro.core import QSCaQR
from repro.exceptions import WorkloadError
from repro.sim import run_counts
from repro.workloads import load_qasm_benchmark, qasm_benchmark_names


class TestGHZ:
    def test_two_outcomes(self):
        counts = run_counts(ghz(4, measure=True), shots=2000, seed=4)
        assert set(counts) == {"0000", "1111"}

    def test_ghz_compresses_to_two_wires(self):
        """Deferred measurement lets the GHZ chain fold onto 2 wires."""
        result = QSCaQR().reduce_to(ghz(5, measure=True), 2)
        assert result.feasible

    def test_reused_ghz_keeps_correlations(self):
        result = QSCaQR().reduce_to(ghz(4, measure=True), 2)
        counts = run_counts(result.circuit, shots=2000, seed=11)
        assert set(counts) == {"0000", "1111"}
        assert abs(counts["0000"] - 1000) < 150


class TestQasmAssets:
    def test_all_programs_parse(self):
        for name in qasm_benchmark_names():
            circuit = load_qasm_benchmark(name)
            assert circuit.num_qubits >= 1
            assert circuit.name == name

    def test_bell_counts(self):
        counts = run_counts(load_qasm_benchmark("bell"), shots=2000, seed=6)
        assert set(counts) == {"00", "11"}

    def test_teleport_feed_forward(self):
        """Teleporting |1> must always read out 1."""
        circuit = load_qasm_benchmark("teleport")
        counts = run_counts(circuit, shots=200, seed=7)
        assert all(key[2] == "1" for key in counts)

    def test_controlled_h_macro(self):
        circuit = load_qasm_benchmark("controlled_h")
        counts = run_counts(circuit, shots=4000, seed=8)
        # control is |1>: target in |+> -> both outcomes, control always 1
        assert all(key[0] == "1" for key in counts)
        assert abs(counts.get("10", 0) - 2000) < 200

    def test_parity4_answer(self):
        counts = run_counts(load_qasm_benchmark("parity4"), shots=32, seed=9)
        assert counts == {"1010": 32}  # inputs 101, parity 0... bits c0..c3

    def test_repetition_code_corrects(self):
        counts = run_counts(load_qasm_benchmark("repetition3"), shots=64, seed=10)
        key = next(iter(counts))
        assert key[0] == "1"  # the logical |1> is recovered

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            load_qasm_benchmark("nope")

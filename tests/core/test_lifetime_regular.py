"""Tests for the one-sweep lifetime compiler for regular circuits."""

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library import ghz
from repro.core import QSCaQR
from repro.core.lifetime_regular import (
    greedy_gate_order,
    lifetime_compile_regular,
)
from repro.exceptions import ReuseError
from repro.sim import assert_equivalent, run_counts
from repro.workloads import (
    bv_circuit,
    cc_circuit,
    multiply_13,
    system_9,
    xor5,
)


class TestGateOrder:
    def test_order_is_permutation(self):
        circuit = bv_circuit(6)
        order = greedy_gate_order(circuit)
        assert sorted(order) == list(range(len(circuit.data)))

    def test_order_respects_dependencies(self):
        circuit = bv_circuit(5)
        order = greedy_gate_order(circuit)
        position = {index: i for i, index in enumerate(order)}
        # each qubit's own instructions must stay in wire order
        table = circuit.qubit_instruction_indices()
        for q, indices in table.items():
            for a, b in zip(indices, indices[1:]):
                assert position[a] < position[b], (q, a, b)


class TestCompile:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_bv_reaches_two_wires(self, n):
        result = lifetime_compile_regular(bv_circuit(n))
        assert result.qubits == 2
        assert result.reuse_count == n - 2

    def test_bv_answer_preserved(self):
        original = bv_circuit(6, secret=[1, 0, 1, 1, 0])
        result = lifetime_compile_regular(original)
        assert_equivalent(original, result.circuit, width=5, shots=400)

    @pytest.mark.parametrize(
        "builder", [xor5, system_9, multiply_13, lambda: cc_circuit(10)]
    )
    def test_matches_or_beats_pair_greedy(self, builder):
        circuit = builder()
        sweep_floor = QSCaQR().minimum_qubits(circuit)
        result = lifetime_compile_regular(circuit)
        assert result.qubits <= sweep_floor

    @pytest.mark.parametrize("builder", [xor5, system_9])
    def test_deterministic_outputs_preserved(self, builder):
        circuit = builder()
        expected = next(iter(run_counts(circuit, shots=32, seed=1)))
        result = lifetime_compile_regular(circuit)
        counts = run_counts(result.circuit, shots=32, seed=2)
        projected = {key[: circuit.num_clbits] for key in counts}
        assert projected == {expected}

    def test_ghz_folds_to_two(self):
        result = lifetime_compile_regular(ghz(6, measure=True))
        assert result.qubits == 2
        counts = run_counts(result.circuit, shots=2000, seed=3)
        projected = {}
        for key, value in counts.items():
            projected[key[:6]] = projected.get(key[:6], 0) + value
        assert set(projected) == {"000000", "111111"}

    def test_builtin_reset_style(self):
        result = lifetime_compile_regular(bv_circuit(5), reset_style="builtin")
        assert "reset" in result.circuit.count_ops()

    def test_bad_reset_style(self):
        with pytest.raises(ReuseError):
            lifetime_compile_regular(bv_circuit(3), reset_style="nope")

    def test_explicit_order_must_be_permutation(self):
        with pytest.raises(ReuseError):
            lifetime_compile_regular(bv_circuit(3), order=[0, 0, 1])

    def test_no_reuse_needed_when_all_live(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        circuit.measure_all()
        result = lifetime_compile_regular(circuit)
        assert result.qubits == 3
        assert result.reuse_count == 0

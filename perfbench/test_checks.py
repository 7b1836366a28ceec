"""The output checks must reject broken circuits and accept real compiles.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import pytest

from checks import output_errors, structural_errors
from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import caqr_compile
from repro.hardware.mumbai import ibm_mumbai
from repro.workloads.bv import bv_circuit


@pytest.fixture(scope="module")
def backend():
    return ibm_mumbai()


def _source(width: int) -> QuantumCircuit:
    source = QuantumCircuit(width, width)
    for q in range(width - 1):
        source.cx(q, q + 1)
    for q in range(width):
        source.measure(q, q)
    return source


def test_off_coupling_two_qubit_gate_is_rejected(backend):
    a, b = 0, 26
    assert frozenset((a, b)) not in {frozenset(e) for e in backend.coupling.edges}
    circuit = QuantumCircuit(backend.num_qubits, 2)
    circuit.cx(a, b)
    circuit.measure(a, 0)
    circuit.measure(b, 1)
    errors = structural_errors(circuit, _source(2), backend)
    assert any("off the coupling map" in e for e in errors)


def test_reused_wire_without_reset_is_rejected(backend):
    # logical qubit 0 is measured, then wire 0 carries logical qubit 2
    # with no reset in between
    circuit = QuantumCircuit(2, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.x(0)
    circuit.cx(1, 0)
    circuit.measure(1, 1)
    circuit.measure(0, 2)
    errors = structural_errors(circuit, _source(3), None)
    assert any("without a reset" in e for e in errors)


def test_reused_wire_with_reset_passes(backend):
    circuit = QuantumCircuit(2, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_and_reset(0, 0, style="cif")
    circuit.x(0)
    circuit.cx(1, 0)
    circuit.measure(1, 1)
    circuit.measure(0, 2)
    assert structural_errors(circuit, _source(3), None) == []


def test_clbit_change_and_overwide_output_are_rejected(backend):
    circuit = QuantumCircuit(4, 2)
    for q in range(4):
        circuit.h(q)
    errors = structural_errors(circuit, _source(3), None)
    assert any("classical bits changed" in e for e in errors)
    assert any("exceeds the input" in e for e in errors)


@pytest.mark.parametrize("mode", ["min_swap", "max_reuse"])
def test_real_compiles_pass_every_check(backend, mode):
    source = bv_circuit(6)
    report = caqr_compile(source, backend, mode=mode)
    assert report.metrics.qubits_used < source.num_qubits  # reuse happened
    assert output_errors(report.circuit, source, backend) == []


def test_wrong_bv_answer_is_rejected(backend):
    source = bv_circuit(4)
    wrong = bv_circuit(4, secret=[1, 0, 1])
    assert output_errors(wrong, source, None)

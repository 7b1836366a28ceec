"""Decomposition into two-qubit + one-qubit gates for routing.

Routing needs every unitary to touch at most two qubits; the only wider
gate in the library is ``ccx`` (Toffoli), decomposed here into the textbook
six-CX network.
"""

from __future__ import annotations

from repro.circuit.circuit import QuantumCircuit

__all__ = ["decompose_ccx", "decompose_to_two_qubit"]


def decompose_ccx(circuit: QuantumCircuit) -> QuantumCircuit:
    """Expand every Toffoli into 6 CX + 1Q gates (standard decomposition)."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for instruction in circuit.data:
        if instruction.name != "ccx":
            out.append(instruction.copy())
            continue
        a, b, c = instruction.qubits
        out.h(c)
        out.cx(b, c)
        out.tdg(c)
        out.cx(a, c)
        out.t(c)
        out.cx(b, c)
        out.tdg(c)
        out.cx(a, c)
        out.t(b)
        out.t(c)
        out.h(c)
        out.cx(a, b)
        out.t(a)
        out.tdg(b)
        out.cx(a, b)
    return out


def decompose_to_two_qubit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Ensure all unitaries act on <= 2 qubits (currently: expand ccx)."""
    if any(instruction.name == "ccx" for instruction in circuit.data):
        return decompose_ccx(circuit)
    return circuit


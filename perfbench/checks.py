"""Output checks that do not trust the compiler under test.

Two kinds of check run on every distinct compiled report, outside the
timed region:

* :func:`structural_errors` — a validator written here, independent of
  the compiler: 2-qubit gates on coupling edges, width within the device
  and (unless the output routes with SWAPs) the input, every reused wire
  measured and reset before it is handed to the next logical qubit,
  classical bits preserved;
* :func:`reference_errors` — behaviour against a reference computed by
  ``repro.sim`` from the *uncompiled* input (never from a compile):
  BV outputs must return the secret string, and outputs with a small
  active width must be distribution-equivalent to their input.

Both return a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

from typing import List, Optional

#: Simulate an output against its input only when both stay this small
#: (7- and 8-wide QAOA outputs took 1.5-3 s each to sample).
SIM_MAX_ACTIVE = 6
SIM_MAX_INPUT = 16
#: Marginal width compared for non-deterministic outputs: a wider
#: marginal has more outcomes than the shots can estimate.
SIM_MARGINAL_BITS = 3
SIM_SHOTS = 4000
SIM_TOLERANCE = 0.06

_IGNORED = ("barrier", "delay")


def _edge_set(backend):
    return {frozenset(edge) for edge in backend.coupling.edges}


def is_mapped(circuit, backend) -> bool:
    """Whether *circuit* lives on *backend*'s physical register.

    Sweep-mode portfolio reports return logical circuits even under a
    backend (documented in ``docs/PORTFOLIO.md``); the coupling check
    does not apply to those.
    """
    return backend is not None and circuit.num_qubits == backend.num_qubits


def structural_errors(circuit, source, backend) -> List[str]:
    """Validate a compiled *circuit* against its *source* and *backend*.

    *source* is the uncompiled :class:`QuantumCircuit` the request carried.
    """
    errors: List[str] = []
    used = circuit.num_used_qubits()
    # a routed output may pass a logical qubit through a spare wire with
    # SWAPs, so only a SWAP-free output is held to the input's width
    if used > source.num_qubits and circuit.swap_count() == 0:
        errors.append(f"width {used} exceeds the input's {source.num_qubits}")
    if backend is not None and used > backend.num_qubits:
        errors.append(f"width {used} exceeds the device's {backend.num_qubits}")
    if circuit.num_clbits != source.num_clbits:
        errors.append(
            f"classical bits changed: {source.num_clbits} -> {circuit.num_clbits}"
        )
    edges = _edge_set(backend) if is_mapped(circuit, backend) else None
    # per physical wire: the clbit it was last measured into while its
    # logical qubit is finished but not yet reset, else absent
    measured = {}
    for index, instruction in enumerate(circuit.data):
        name = instruction.name
        if name in _IGNORED:
            continue
        qubits = instruction.qubits
        if edges is not None and len(qubits) >= 2:
            if len(qubits) > 2 or frozenset(qubits) not in edges:
                errors.append(f"#{index} {name}{list(qubits)} is off the coupling map")
        if name == "reset":
            measured.pop(qubits[0], None)
            continue
        if (
            name == "x"
            and instruction.condition is not None
            and measured.get(qubits[0]) == instruction.condition[0]
        ):
            measured.pop(qubits[0], None)  # the c_if-X reset idiom
            continue
        if name == "swap":
            a, b = qubits
            state_a, state_b = measured.pop(a, None), measured.pop(b, None)
            if state_a is not None:
                measured[b] = state_a
            if state_b is not None:
                measured[a] = state_b
            continue
        stale = [q for q in qubits if q in measured]
        if stale:
            errors.append(
                f"#{index} {name}{list(qubits)} reuses wire {stale[0]} "
                "after a measure without a reset"
            )
            for q in stale:
                measured.pop(q, None)
        if name == "measure":
            measured[qubits[0]] = instruction.clbits[0]
    return errors


def _expected_bv(source) -> Optional[str]:
    """The BV secret string when *source* is a bundled BV circuit."""
    if not source.name.startswith("bv"):
        return None
    from repro.workloads.bv import bv_expected_bitstring

    return bv_expected_bitstring(source.num_qubits)


def reference_errors(circuit, source, seed: int = 17) -> List[str]:
    """Check *circuit*'s behaviour against a simulation of *source*."""
    from repro.exceptions import SimulationError
    from repro.sim.statevector import run_counts
    from repro.sim.verify import assert_equivalent

    compact = circuit.compacted()
    expected = _expected_bv(source)
    if expected is not None:
        counts = run_counts(compact, 16, seed=seed)
        wrong = sorted(key for key in counts if key != expected)
        return [f"BV returned {wrong[:2]} instead of {expected}"] if wrong else []
    if compact.num_qubits > SIM_MAX_ACTIVE or source.num_qubits > SIM_MAX_INPUT:
        return []
    try:
        assert_equivalent(
            compact,
            source,
            width=min(source.num_clbits, SIM_MARGINAL_BITS),
            shots=SIM_SHOTS,
            seed=seed,
            tolerance=SIM_TOLERANCE,
        )
    except SimulationError as exc:
        return [str(exc)]
    return []


def output_errors(circuit, source, backend) -> List[str]:
    """Every structural and reference error of one compiled output."""
    errors = structural_errors(circuit, source, backend)
    return errors or reference_errors(circuit, source)

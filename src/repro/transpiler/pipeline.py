"""The baseline transpilation pipeline (Qiskit-L3 equivalent).

``transpile(circuit, backend, optimization_level=3)`` mirrors what the
paper uses as its baseline: decompose to <=2Q gates, find a layout (SABRE
bidirectional search at levels >= 2), route with SABRE swap insertion, and
run peephole optimisation.  The result records the metrics the paper
tables report: qubit usage, depth, duration (dt), SWAP count, 2Q count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.hardware.backends import Backend
from repro.stats import Stats
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.layout import Layout, greedy_degree_layout, trivial_layout
from repro.transpiler.optimization import optimize_circuit
from repro.transpiler.sabre import RoutingProblem, search_layout
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = ["TranspileResult", "transpile"]


@dataclass
class TranspileResult:
    """A hardware-compliant circuit plus the metrics the paper reports."""

    circuit: QuantumCircuit
    initial_layout: Layout
    swap_count: int
    depth: int
    duration_dt: int
    two_qubit_count: int
    qubits_used: int

    @classmethod
    def from_circuit(
        cls, circuit: QuantumCircuit, layout: Layout, backend: Backend
    ) -> "TranspileResult":
        return cls(
            circuit=circuit,
            initial_layout=layout,
            swap_count=circuit.swap_count(),
            depth=circuit.depth(),
            duration_dt=circuit_duration_dt(circuit, backend.calibration),
            two_qubit_count=circuit.two_qubit_gate_count(),
            qubits_used=circuit.num_used_qubits(),
        )


def transpile(
    circuit: QuantumCircuit,
    backend: Backend,
    optimization_level: int = 3,
    seed: int = 11,
    initial_layout: Optional[Layout] = None,
    parallel: Optional[bool] = None,
    stats: Optional[Stats] = None,
) -> TranspileResult:
    """Compile *circuit* for *backend*.

    Optimisation levels:

    * 0 — trivial layout, SABRE routing, no cleanup.
    * 1 — trivial layout, routing, self-inverse cancellation.
    * 2 — greedy degree layout seed + SABRE layout (small search), routing,
      full peephole.
    * 3 — SABRE bidirectional layout search (larger search), routing, full
      peephole — the paper's Qiskit-level-3 baseline.

    ``parallel`` fans the SABRE layout trials over the routing worker pool
    (``None`` auto-detects; results are bit-identical either way) and
    ``stats`` collects :class:`~repro.stats.Stats` counters — neither changes the
    emitted circuit.
    """
    if not 0 <= optimization_level <= 3:
        raise TranspilerError(f"bad optimization level {optimization_level}")
    backend.validate_circuit_width(circuit.num_qubits)
    flat = decompose_to_two_qubit(circuit)

    coupling = backend.coupling
    # one routing problem serves the layout search and the final route
    problem = RoutingProblem(flat, coupling)
    if initial_layout is not None:
        layout = initial_layout
    elif optimization_level == 0 or optimization_level == 1:
        layout = trivial_layout(flat.num_qubits, coupling.num_qubits)
    elif optimization_level == 2:
        degrees = dict(flat.interaction_graph().degree())
        seed_layout = greedy_degree_layout(degrees, coupling, flat.num_qubits)
        _, seed_swaps = problem.route(seed_layout, seed, stats)
        layout = (
            seed_layout
            if seed_swaps == 0
            else search_layout(
                problem, seed=seed, iterations=2, trials=2,
                parallel=parallel, stats=stats,
            )
        )
    else:
        layout = search_layout(
            problem, seed=seed, iterations=3, trials=4,
            parallel=parallel, stats=stats,
        )

    routed = problem.routed(layout, seed, stats)
    result = routed.circuit
    if optimization_level == 1:
        result = optimize_circuit(result, merge_1q=False)
    elif optimization_level >= 2:
        result = optimize_circuit(result, merge_1q=True)
    return TranspileResult.from_circuit(result, routed.initial_layout, backend)

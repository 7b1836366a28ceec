"""Structural reuse profiling of interaction graphs, plus runtime counters.

Quantifies *why* an application is (or is not) reuse-friendly before any
compilation happens — the paper's intuition ("the power-law graph contains
more vertices with low degrees ... the large degree node dominates the
overall depth") turned into measurable quantities:

* the **coloring bound** (paper's optimistic minimum, Fig. 10),
* the **lifetime floor** (the vertex-separation-based width the scheduler
  can actually realise — see :mod:`repro.core.lifetime`),
* **hub dominance** and degree-tail statistics, and
* the paper's depth lower bound (the maximum degree: that qubit's gates
  serialise).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.core.lifetime import lifetime_minimum_qubits
from repro.core.qs_commuting import minimum_qubits_by_coloring

__all__ = [
    "ReuseProfile",
    "profile_graph",
    "profile_circuit",
]


@dataclass(frozen=True)
class ReuseProfile:
    """Structural reuse indicators of one interaction graph.

    Attributes:
        num_qubits / num_edges: size of the interaction graph.
        max_degree: depth lower bound for commuting circuits (the hub's
            gates serialise).
        median_degree: degree of the typical qubit.
        hub_dominance: fraction of all edge endpoints incident to the top
            10 % highest-degree vertices (1.0 = perfectly hub-concentrated).
        coloring_bound: chromatic (optimistic) minimum width — a lower
            bound that lifetimes may not achieve (see DESIGN.md).
        lifetime_floor: width the lifetime scheduler realises — the
            practical minimum for commuting circuits.
        max_saving: ``1 - lifetime_floor / num_qubits``.
    """

    num_qubits: int
    num_edges: int
    max_degree: int
    median_degree: float
    hub_dominance: float
    coloring_bound: int
    lifetime_floor: int

    @property
    def max_saving(self) -> float:
        if self.num_qubits == 0:
            return 0.0
        return 1.0 - self.lifetime_floor / self.num_qubits

    def summary(self) -> str:
        """One-paragraph human-readable interpretation."""
        return (
            f"{self.num_qubits} qubits, {self.num_edges} interactions; "
            f"max degree {self.max_degree} (depth lower bound), "
            f"median degree {self.median_degree:g}, "
            f"hub dominance {self.hub_dominance:.0%}. "
            f"Coloring bound {self.coloring_bound}, achievable floor "
            f"{self.lifetime_floor} ({self.max_saving:.0%} saving)."
        )


def profile_graph(graph: nx.Graph) -> ReuseProfile:
    """Profile an interaction/problem graph (commuting semantics)."""
    n = graph.number_of_nodes()
    if n == 0:
        return ReuseProfile(0, 0, 0, 0.0, 0.0, 0, 0)
    degrees = sorted((d for _v, d in graph.degree()), reverse=True)
    hubs = max(1, n // 10)
    endpoint_total = sum(degrees) or 1
    hub_dominance = sum(degrees[:hubs]) / endpoint_total
    middle = degrees[len(degrees) // 2]
    return ReuseProfile(
        num_qubits=n,
        num_edges=graph.number_of_edges(),
        max_degree=degrees[0],
        median_degree=float(middle),
        hub_dominance=hub_dominance,
        coloring_bound=minimum_qubits_by_coloring(graph),
        lifetime_floor=lifetime_minimum_qubits(graph) if graph.number_of_edges() else 1,
    )


def profile_circuit(circuit: QuantumCircuit) -> ReuseProfile:
    """Profile a circuit through its qubit interaction graph.

    Note: for *regular* circuits the lifetime floor is optimistic (gate
    dependencies constrain reuse further than the interaction graph does);
    use :func:`repro.core.tradeoff.assess_reuse_benefit` for the exact
    regular-circuit answer.
    """
    graph = circuit.interaction_graph()
    used = circuit.used_qubits()
    if used and len(used) != circuit.num_qubits:
        graph = graph.subgraph(used)
    # lifetime analysis expects vertices 0..n-1: relabel in sorted order
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    return profile_graph(graph)

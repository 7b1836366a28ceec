"""Candidate-pair evaluation by critical path (paper Section 3.2.1).

To compare reuse pairs under the same qubit saving, CaQR inserts a dummy
node ``D`` into the dependency DAG — all gates on the source point to
``D``, ``D`` points to all gates on the target (paper Fig. 9) — and ranks
pairs by the resulting critical-path length.  ``D`` carries the real
duration of the measure + conditional-X sequence so the duration objective
accounts for the (slow) mid-circuit measurement.

:func:`evaluate_pair_depth` / :func:`evaluate_pair_duration` materialise a
trial DAG per pair — exact but O(n) each.  :func:`batch_pair_costs`
computes the same numbers for *all* candidates from one ASAP/tail
decomposition of the critical path (every path through ``D`` is
``finish(s) + w(D) + tail(t)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.circuit import gates
from repro.dag.analysis import (
    asap_finish_times,
    critical_path_length,
    node_weight_depth,
    node_weight_duration,
)
from repro.dag.dagcircuit import DAGCircuit
from repro.core.conditions import ReusePair
from repro.exceptions import ReuseError

__all__ = [
    "reuse_node_duration_dt",
    "add_reuse_dummy_node",
    "evaluate_pair_depth",
    "evaluate_pair_duration",
    "tail_path_lengths",
    "batch_pair_costs",
]


def reuse_node_duration_dt(reset_style: str = "cif") -> int:
    """Duration of the measure-and-reset sequence inserted for a reuse.

    ``"cif"`` is the optimised measure + classically controlled X
    (16,467 dt, paper Fig. 2b); ``"builtin"`` the naive measure + reset
    (33,179 dt, Fig. 2a).
    """
    measure = gates.default_duration("measure")
    if reset_style == "cif":
        return measure + gates.default_duration("x") + gates.CONDITIONAL_LATENCY_DT
    return measure + gates.default_duration("reset")


def add_reuse_dummy_node(
    dag: DAGCircuit, pair: ReusePair, weight: int = 1
) -> int:
    """Insert the dummy node ``D`` for *pair* into *dag* (mutates it).

    Edges: every instruction node on the source qubit -> D -> every
    instruction node on the target qubit.  Returns the node id of ``D``.
    """
    dummy = dag.add_virtual_node(weight=weight, tag=f"reuse:{pair.source}->{pair.target}")
    for node_id in dag.nodes_on_qubit(pair.source):
        dag.add_edge(node_id, dummy)
    for node_id in dag.nodes_on_qubit(pair.target):
        dag.add_edge(dummy, node_id)
    return dummy


def evaluate_pair_depth(dag: DAGCircuit, pair: ReusePair) -> int:
    """Depth of the circuit if *pair* were applied (D counts one level).

    Raises :class:`repro.exceptions.DAGError` via the topological sort if
    the pair is invalid (cycle) — callers filter candidates first.
    """
    trial = dag.copy()
    add_reuse_dummy_node(trial, pair, weight=1)
    return critical_path_length(trial, node_weight_depth)


def evaluate_pair_duration(
    dag: DAGCircuit, pair: ReusePair, reset_style: str = "cif"
) -> int:
    """Estimated duration (dt) of the circuit if *pair* were applied."""
    trial = dag.copy()
    add_reuse_dummy_node(trial, pair, weight=reuse_node_duration_dt(reset_style))
    return critical_path_length(trial, node_weight_duration)


# -- batched evaluation ---------------------------------------------------------


def tail_path_lengths(dag: DAGCircuit, weight_fn) -> Dict[int, int]:
    """Longest weighted path *starting* at each node (own weight included).

    The dual of :func:`repro.dag.analysis.asap_finish_times`: together they
    price any candidate dummy node in O(degree) instead of O(n).
    """
    tails: Dict[int, int] = {}
    for node_id in reversed(dag.topological_order()):
        best = max(
            (tails[successor] for successor in dag.successors(node_id)),
            default=0,
        )
        tails[node_id] = best + weight_fn(dag.nodes[node_id])
    return tails


def _nodes_by_qubit(dag: DAGCircuit) -> Dict[int, List[int]]:
    """Instruction nodes per qubit (directives included), in wire order."""
    table: Dict[int, List[int]] = {}
    for node_id in dag.op_nodes(include_directives=True):
        for q in dag.nodes[node_id].instruction.qubits:
            table.setdefault(q, []).append(node_id)
    return table


def batch_pair_costs(
    dag: DAGCircuit,
    pairs: Sequence[ReusePair],
    objective: str = "depth",
    reset_style: str = "cif",
    nodes_by_qubit: Optional[Dict[int, List[int]]] = None,
) -> List[int]:
    """Evaluate every pair in one pass; exact match of the per-pair API.

    Inserting ``D`` only creates paths of the form ``... -> s -> D -> t ->
    ...`` with ``s`` on the source wire and ``t`` on the target wire, so
    the trial critical path is ``max(base, max_s finish(s) + w(D) + max_t
    tail(t))`` — no trial DAG is materialised.

    Args:
        nodes_by_qubit: wire -> node-id lists overriding the DAG's own
            qubit bookkeeping (the incremental session passes its merged
            wire groups here, keyed by current label).
    """
    if objective == "depth":
        weight_fn = node_weight_depth
        dummy_weight = 1
    elif objective == "duration":
        weight_fn = node_weight_duration
        dummy_weight = reuse_node_duration_dt(reset_style)
    else:
        raise ReuseError(f"unknown objective {objective!r}")
    finish = asap_finish_times(dag, weight_fn)
    tails = tail_path_lengths(dag, weight_fn)
    base = max(finish.values(), default=0)
    if nodes_by_qubit is None:
        nodes_by_qubit = _nodes_by_qubit(dag)
    costs: List[int] = []
    for pair in pairs:
        into = max(
            (finish[n] for n in nodes_by_qubit.get(pair.source, ())), default=0
        )
        out = max(
            (tails[n] for n in nodes_by_qubit.get(pair.target, ())), default=0
        )
        costs.append(max(base, into + dummy_weight + out))
    return costs

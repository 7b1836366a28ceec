"""Transitive reachability over the dependency DAG, as integer bitsets.

This powers Condition 2 of the paper: a reuse pair ``(q_i -> q_j)`` is
valid only when no gate on ``q_i`` (transitively) depends on a gate on
``q_j``.  With bitsets the whole closure for *n* gates costs ``O(n^2 / w)``
words, which is fast for the benchmark sizes the paper uses.

For the greedy sweep the full closure is only computed once:
:func:`update_masks_for_node` patches an existing bitset cache when the
reuse transformation inserts its measure/reset node ``D``, touching only
the ancestors of the insertion point instead of re-deriving the whole
closure.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.dag.dagcircuit import DAGCircuit

__all__ = [
    "descendants_bitsets",
    "reaches",
    "qubit_dependency_matrix",
    "update_masks_for_node",
]


def descendants_bitsets(dag: DAGCircuit) -> Dict[int, int]:
    """Map node id -> bitmask of all (transitive) descendant node ids.

    The mask uses node ids as bit positions; a node's mask excludes itself.
    """
    masks: Dict[int, int] = {}
    for node_id in reversed(dag.topological_order()):
        mask = 0
        for successor in dag.successors(node_id):
            mask |= masks[successor] | (1 << successor)
        masks[node_id] = mask
    return masks


def reaches(masks: Dict[int, int], source: int, target: int) -> bool:
    """True when *target* is a (transitive) descendant of *source*."""
    return bool(masks[source] >> target & 1)


def update_masks_for_node(
    dag: DAGCircuit, masks: Dict[int, int], node_id: int
) -> Set[int]:
    """Register a freshly inserted node (edges already attached) in *masks*.

    This is the incremental path for CaQR's dummy/measure/reset node ``D``:
    its mask is the union of its successors' closures, and the combined
    delta is propagated to its ancestors in one upward sweep.

    Returns the set of node ids whose mask changed (including *node_id*).
    """
    mask = 0
    for successor in dag.successors(node_id):
        mask |= masks[successor] | (1 << successor)
    masks[node_id] = mask
    delta = mask | (1 << node_id)
    changed: Set[int] = {node_id}
    pending = list(dag.predecessors(node_id))
    while pending:
        ancestor = pending.pop()
        current = masks[ancestor]
        if current | delta == current:
            continue
        masks[ancestor] = current | delta
        changed.add(ancestor)
        pending.extend(dag.predecessors(ancestor))
    return changed


def qubit_dependency_matrix(dag: DAGCircuit) -> Dict[Tuple[int, int], bool]:
    """Qubit-level reachability: does any gate on *a* precede a gate on *b*?

    Returns a dict with key ``(a, b)`` set to ``True`` when some gate acting
    on qubit ``a`` is a (possibly transitive, possibly identical) ancestor
    of some gate acting on qubit ``b``.  Gates acting on both qubits count
    in both directions.

    Reuse pair ``(q_i -> q_j)`` satisfies Condition 2 exactly when
    ``matrix[(q_j, q_i)]`` is ``False`` — no gate on ``q_j`` may precede
    any gate on ``q_i``, because reuse forces every gate on ``q_i`` to run
    first.
    """
    masks = descendants_bitsets(dag)
    qubit_nodes: Dict[int, List[int]] = {}
    for node_id in dag.op_nodes(include_directives=False):
        for q in dag.nodes[node_id].instruction.qubits:
            qubit_nodes.setdefault(q, []).append(node_id)

    # union of (descendants + self) per qubit, and union of self bits per qubit
    qubit_reach: Dict[int, int] = {}
    qubit_self: Dict[int, int] = {}
    for q, nodes in qubit_nodes.items():
        reach = 0
        self_mask = 0
        for node_id in nodes:
            reach |= masks[node_id] | (1 << node_id)
            self_mask |= 1 << node_id
        qubit_reach[q] = reach
        qubit_self[q] = self_mask

    qubits = sorted(qubit_nodes)
    matrix: Dict[Tuple[int, int], bool] = {}
    for a in qubits:
        for b in qubits:
            if a == b:
                continue
            matrix[(a, b)] = bool(qubit_reach[a] & qubit_self[b])
    return matrix

"""Timing analysis over :class:`~repro.dag.dagcircuit.DAGCircuit`.

Provides ASAP/ALAP levelling, critical-path length, slack, depth and
duration estimates.  The CaQR passes use these to (a) rank candidate reuse
pairs by the critical path of the DAG-plus-dummy-node and (b) decide which
frontier gates are safe to delay in SR-CaQR.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.dag.dagcircuit import DAGCircuit, DAGNode

__all__ = [
    "node_weight_depth",
    "node_weight_duration",
    "asap_finish_times",
    "alap_finish_times",
    "critical_path_length",
    "slack",
    "dag_depth",
    "dag_duration",
]


def node_weight_depth(node: DAGNode) -> int:
    """Unit weight per real gate: yields the classic circuit depth."""
    if node.instruction is None:
        return node.weight_override
    if node.instruction.is_directive():
        return 0
    return 1


def node_weight_duration(node: DAGNode) -> int:
    """Default-duration weight in dt: yields an estimated circuit duration."""
    if node.instruction is None:
        return node.weight_override
    if node.instruction.is_directive():
        return 0
    return node.instruction.duration_dt()


def asap_finish_times(
    dag: DAGCircuit, weight_fn: Callable[[DAGNode], int] = node_weight_depth
) -> Dict[int, int]:
    """Earliest finish time of every node under the given weights."""
    finish: Dict[int, int] = {}
    for node_id in dag.topological_order():
        start = max(
            (finish[predecessor] for predecessor in dag.predecessors(node_id)),
            default=0,
        )
        finish[node_id] = start + weight_fn(dag.nodes[node_id])
    return finish


def alap_finish_times(
    dag: DAGCircuit,
    weight_fn: Callable[[DAGNode], int] = node_weight_depth,
    horizon: Optional[int] = None,
) -> Dict[int, int]:
    """Latest finish time of every node without stretching the critical path.

    Args:
        horizon: total schedule length; defaults to the ASAP makespan.
    """
    if horizon is None:
        asap = asap_finish_times(dag, weight_fn)
        horizon = max(asap.values(), default=0)
    finish: Dict[int, int] = {}
    for node_id in reversed(dag.topological_order()):
        successors = dag.successors(node_id)
        if not successors:
            finish[node_id] = horizon
        else:
            finish[node_id] = min(
                finish[successor] - weight_fn(dag.nodes[successor])
                for successor in successors
            )
    return finish


def critical_path_length(
    dag: DAGCircuit, weight_fn: Callable[[DAGNode], int] = node_weight_depth
) -> int:
    """Length of the longest weighted path (the schedule makespan)."""
    finish = asap_finish_times(dag, weight_fn)
    return max(finish.values(), default=0)


def slack(
    dag: DAGCircuit, weight_fn: Callable[[DAGNode], int] = node_weight_depth
) -> Dict[int, int]:
    """Per-node scheduling slack: ALAP finish minus ASAP finish.

    Zero-slack nodes are on a critical path; SR-CaQR only delays gates with
    positive slack (paper Section 3.3.1 Step 2).
    """
    asap = asap_finish_times(dag, weight_fn)
    horizon = max(asap.values(), default=0)
    alap = alap_finish_times(dag, weight_fn, horizon)
    return {node_id: alap[node_id] - asap[node_id] for node_id in asap}


def dag_depth(dag: DAGCircuit) -> int:
    """Classic gate depth of the DAG."""
    return critical_path_length(dag, node_weight_depth)


def dag_duration(dag: DAGCircuit) -> int:
    """Estimated duration in dt using default gate durations."""
    return critical_path_length(dag, node_weight_duration)

"""Dependency-DAG representation and analysis."""

from repro.dag.analysis import (
    alap_finish_times,
    asap_finish_times,
    critical_path_length,
    dag_depth,
    dag_duration,
    node_weight_depth,
    node_weight_duration,
    slack,
)
from repro.dag.dagcircuit import DAGCircuit, DAGNode
from repro.dag.reachability import (
    descendants_bitsets,
    qubit_dependency_matrix,
    reaches,
)

__all__ = [
    "DAGCircuit",
    "DAGNode",
    "asap_finish_times",
    "alap_finish_times",
    "critical_path_length",
    "slack",
    "dag_depth",
    "dag_duration",
    "node_weight_depth",
    "node_weight_duration",
    "descendants_bitsets",
    "qubit_dependency_matrix",
    "reaches",
]

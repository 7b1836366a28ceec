"""Baseline transpiler: layout, SABRE routing, peephole optimisation, ASAP
scheduling and the one pipeline, ``transpile()``."""

from repro.transpiler.basis import decompose_ccx, decompose_to_two_qubit
from repro.transpiler.layout import Layout, greedy_degree_layout, trivial_layout
from repro.transpiler.optimization import (
    cancel_adjacent_self_inverse,
    drop_identity_rotations,
    merge_single_qubit_runs,
    optimize_circuit,
    zyz_angles,
)
from repro.transpiler.pipeline import TranspileResult, transpile
from repro.transpiler.sabre import RoutingResult, sabre_layout, sabre_route
from repro.transpiler.scheduling import (
    Schedule,
    ScheduledInstruction,
    circuit_duration_dt,
    schedule_asap,
)

__all__ = [
    "Layout",
    "trivial_layout",
    "greedy_degree_layout",
    "sabre_route",
    "sabre_layout",
    "RoutingResult",
    "Schedule",
    "ScheduledInstruction",
    "schedule_asap",
    "circuit_duration_dt",
    "optimize_circuit",
    "merge_single_qubit_runs",
    "cancel_adjacent_self_inverse",
    "drop_identity_rotations",
    "zyz_angles",
    "decompose_ccx",
    "decompose_to_two_qubit",
    "transpile",
    "TranspileResult",
]

"""Baseline transpiler: layout, SABRE routing, scheduling, optimisation."""

from repro.transpiler.basis import decompose_ccx, decompose_swaps, decompose_to_two_qubit
from repro.transpiler.layout import Layout, greedy_degree_layout, trivial_layout
from repro.transpiler.optimization import (
    cancel_adjacent_self_inverse,
    drop_identity_rotations,
    merge_single_qubit_runs,
    optimize_circuit,
    zyz_angles,
)
from repro.transpiler.pipeline import TranspileResult, transpile
from repro.transpiler.commutation import (
    commutation_aware_cancel,
    instructions_commute,
)
from repro.transpiler.timing import insert_delays, schedule_alap
from repro.transpiler.translation import NATIVE_BASIS, is_in_basis, translate_to_basis
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
    "decompose_swaps",
    "decompose_to_two_qubit",
    "transpile",
    "TranspileResult",
    "translate_to_basis",
    "is_in_basis",
    "NATIVE_BASIS",
    "schedule_alap",
    "insert_delays",
    "commutation_aware_cancel",
    "instructions_commute",
]

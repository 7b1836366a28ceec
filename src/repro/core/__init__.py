"""The CaQR passes: qubit-reuse conditions, QS-CaQR, SR-CaQR, tradeoffs."""

from repro.core.conditions import (
    ReuseAnalysis,
    ReusePair,
    condition1_ok,
    condition2_ok,
    is_valid_pair,
    valid_reuse_pairs,
)
from repro.core.evaluate import (
    add_reuse_dummy_node,
    batch_pair_costs,
    evaluate_pair_depth,
    evaluate_pair_duration,
    reuse_node_duration_dt,
    tail_path_lengths,
)
from repro.core.lifetime import (
    alive_profile,
    best_birth_order,
    lifetime_minimum_qubits,
    lifetime_schedule,
    vertex_separation_order,
)
from repro.core.lifetime_regular import (
    LifetimeRegularResult,
    greedy_gate_order,
    lifetime_compile_regular,
)
from repro.core.chains import ChainPlan, ChainReuse, ChainReuseResult
from repro.core.exact import ExactReuse, ExactReuseResult, exact_minimum_qubits
from repro.core.qs_caqr import QSCaQR, QSCaQRResult
from repro.core.windows import ReuseWindow, WindowAnalysis
from repro.core.session import ReuseSession
from repro.core.qs_commuting import (
    CommutingSchedule,
    QSCaQRCommuting,
    QSCommutingResult,
    materialize_commuting,
    minimum_qubits_by_coloring,
    schedule_commuting,
)
from repro.core.sr_caqr import SRCaQR, SRCaQRResult
from repro.core.structure import CommutingStructure, extract_commuting_structure
from repro.core.sr_commuting import SRCaQRCommuting, SRCommutingResult, find_sweet_spot
from repro.core.tradeoff import (
    ReuseBenefitReport,
    TradeoffPoint,
    assess_reuse_benefit,
    select_point,
    sweep_commuting,
    sweep_regular,
)
from repro.core.transform import ReuseTransformation, apply_reuse_chain, apply_reuse_pair

__all__ = [
    "ReusePair",
    "ReuseAnalysis",
    "condition1_ok",
    "condition2_ok",
    "is_valid_pair",
    "valid_reuse_pairs",
    "evaluate_pair_depth",
    "evaluate_pair_duration",
    "reuse_node_duration_dt",
    "add_reuse_dummy_node",
    "tail_path_lengths",
    "batch_pair_costs",
    "ReuseSession",
    "apply_reuse_pair",
    "apply_reuse_chain",
    "ReuseTransformation",
    "QSCaQR",
    "QSCaQRResult",
    "ExactReuse",
    "ExactReuseResult",
    "exact_minimum_qubits",
    "ReuseWindow",
    "WindowAnalysis",
    "ChainPlan",
    "ChainReuse",
    "ChainReuseResult",
    "lifetime_schedule",
    "lifetime_minimum_qubits",
    "vertex_separation_order",
    "best_birth_order",
    "alive_profile",
    "QSCaQRCommuting",
    "QSCommutingResult",
    "CommutingSchedule",
    "schedule_commuting",
    "materialize_commuting",
    "minimum_qubits_by_coloring",
    "SRCaQR",
    "SRCaQRResult",
    "CommutingStructure",
    "extract_commuting_structure",
    "lifetime_compile_regular",
    "LifetimeRegularResult",
    "greedy_gate_order",
    "SRCaQRCommuting",
    "SRCommutingResult",
    "find_sweet_spot",
    "TradeoffPoint",
    "sweep_regular",
    "sweep_commuting",
    "select_point",
    "ReuseBenefitReport",
    "assess_reuse_benefit",
]

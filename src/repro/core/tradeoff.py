"""Tradeoff exploration and the reuse-benefit identifier.

The paper generates, for every qubit budget, a transformed + hardware
mapped circuit, then selects per user demand (Section 3.2.1: "If the user
has provided a range of qubit counts, we can generate multiple transformed
versions and choose the one with the best circuit duration or fidelity").
This module implements that sweep-and-select loop and the "is reuse
beneficial for this application?" question raised in the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.core.qs_caqr import QSCaQR
from repro.core.qs_commuting import QSCaQRCommuting
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.transpiler.pipeline import transpile

__all__ = [
    "TradeoffPoint",
    "sweep_regular",
    "sweep_commuting",
    "select_point",
    "budget_point",
    "ReuseBenefitReport",
    "assess_reuse_benefit",
    "benefit_floor",
]

#: The saving :func:`assess_reuse_benefit` calls beneficial by default.
MIN_SAVING = 0.2


@dataclass
class TradeoffPoint:
    """One (qubit budget, metrics) point of the tradeoff curve.

    Logical metrics always present; compiled metrics filled in when a
    backend was supplied to the sweep.  ``compiled_circuit`` is the
    mapped circuit itself, which a sweep keeps on its first point only:
    that point is the untouched input, so its compile is the no-reuse
    baseline, and one mapped circuit per point would only cost memory.
    """

    qubits: int
    logical_depth: int
    logical_duration_dt: int
    circuit: QuantumCircuit
    compiled_depth: Optional[int] = None
    compiled_duration_dt: Optional[int] = None
    swap_count: Optional[int] = None
    two_qubit_count: Optional[int] = None
    compiled_circuit: Optional[QuantumCircuit] = None


def _compile_point(
    point: TradeoffPoint,
    backend: Backend,
    seed: int,
    keep: bool = False,
    parallel: Optional[bool] = None,
) -> TradeoffPoint:
    """Map *point* onto *backend* at opt-3 and fill its compiled metrics;
    *keep* also stores the mapped circuit on the point, and *parallel*
    is the layout search's fan-out (:func:`repro.parallel.fans_out`)."""
    result = transpile(
        point.circuit, backend, optimization_level=3, seed=seed,
        parallel=parallel,
    )
    point.compiled_depth = result.depth
    point.compiled_duration_dt = result.duration_dt
    point.swap_count = result.swap_count
    point.two_qubit_count = result.two_qubit_count
    if keep:
        point.compiled_circuit = result.circuit
    return point


def _points(
    results, backend: Optional[Backend], seed: int,
    parallel: Optional[bool] = None,
) -> List[TradeoffPoint]:
    """Engine sweep results as tradeoff points, mapped when *backend* is
    given (the first point keeps its compiled circuit)."""
    points: List[TradeoffPoint] = []
    for result in results:
        point = TradeoffPoint(
            qubits=result.qubits,
            logical_depth=result.depth,
            logical_duration_dt=result.duration_dt,
            circuit=result.circuit,
        )
        if backend is not None:
            _compile_point(point, backend, seed, keep=not points, parallel=parallel)
        points.append(point)
    return points


def sweep_regular(
    circuit: QuantumCircuit,
    backend: Optional[Backend] = None,
    objective: str = "depth",
    reset_style: str = "cif",
    seed: int = 11,
    parallel: Optional[bool] = None,
    stats=None,
    min_qubits: int = 1,
) -> List[TradeoffPoint]:
    """QS-CaQR sweep for a regular circuit, optionally hardware-mapped.

    Returns one point per achievable qubit count, original width first,
    stopping once a point is at most *min_qubits* wide (a prefix of the
    full sweep).
    ``parallel`` is the engine's and the mapping's fan-out
    (:func:`repro.parallel.fans_out`); it never changes the points.
    *stats* is an optional
    :class:`~repro.stats.Stats` sink the sweep's engine
    counters/timers are folded into.
    """
    compiler = QSCaQR(
        objective=objective,
        reset_style=reset_style,
        parallel=parallel,
    )
    points = _points(compiler.sweep(circuit, min_qubits), backend, seed, parallel)
    if stats is not None:
        stats.merge(compiler.stats)
    return points


def sweep_commuting(
    graph: nx.Graph,
    backend: Optional[Backend] = None,
    reset_style: str = "cif",
    seed: int = 11,
    min_qubits: Optional[int] = None,
    candidate_evaluation: str = "schedule",
    strategy: str = "greedy",
    gamma: Optional[float] = None,
    beta: Optional[float] = None,
    parallel: Optional[bool] = None,
    stats=None,
) -> List[TradeoffPoint]:
    """QS-CaQR-commuting sweep for a QAOA problem graph.

    Pass ``candidate_evaluation="degree"`` for fast pair ranking, or
    ``strategy="lifetime"`` for the deep-reuse event-driven sweep used on
    the large Fig. 3 / Fig. 14 instances.  ``gamma``/``beta`` override the
    default QAOA angles (e.g. when the graph was extracted from a circuit).
    ``parallel`` is the mapping's fan-out (:func:`repro.parallel.fans_out`);
    the commuting engine scores its candidates in-process.
    """
    from repro.workloads.qaoa import QAOA_DEFAULT_BETA, QAOA_DEFAULT_GAMMA

    compiler = QSCaQRCommuting(
        graph,
        gamma=gamma if gamma is not None else QAOA_DEFAULT_GAMMA,
        beta=beta if beta is not None else QAOA_DEFAULT_BETA,
        reset_style=reset_style,
        candidate_evaluation=candidate_evaluation,
    )
    if strategy == "lifetime":
        results = compiler.lifetime_sweep()
    elif strategy == "greedy":
        results = compiler.sweep(min_qubits=min_qubits)
    else:
        raise ReuseError(f"unknown sweep strategy {strategy!r}")
    points = _points(results, backend, seed, parallel)
    if stats is not None:
        stats.merge(compiler.stats)
    return points


def select_point(points: List[TradeoffPoint], mode: str) -> TradeoffPoint:
    """Pick one sweep point per user demand.

    Modes (paper Table 1's three rows):

    * ``"baseline"`` — no reuse (the first point).
    * ``"max_reuse"`` — fewest qubits.
    * ``"min_depth"`` — smallest compiled depth (logical depth when the
      sweep was not hardware-mapped).
    * ``"min_duration"`` — smallest compiled/logical duration.
    * ``"min_swap"`` — fewest SWAPs (requires a hardware-mapped sweep).
    """
    if not points:
        raise ReuseError("empty tradeoff sweep")
    if mode == "baseline":
        return points[0]
    if mode == "max_reuse":
        return min(points, key=lambda p: (p.qubits, p.logical_depth))
    if mode == "min_depth":
        return min(
            points,
            key=lambda p: (
                p.compiled_depth if p.compiled_depth is not None else p.logical_depth,
                p.qubits,
            ),
        )
    if mode == "min_duration":
        return min(
            points,
            key=lambda p: (
                p.compiled_duration_dt
                if p.compiled_duration_dt is not None
                else p.logical_duration_dt,
                p.qubits,
            ),
        )
    if mode == "min_swap":
        if any(p.swap_count is None for p in points):
            raise ReuseError("min_swap selection needs a hardware-mapped sweep")
        return min(points, key=lambda p: (p.swap_count, p.qubits))
    raise ReuseError(f"unknown selection mode {mode!r}")


def budget_point(points: List[TradeoffPoint], qubit_limit: int) -> TradeoffPoint:
    """The first sweep point at most *qubit_limit* wide.

    A greedy sweep passes through exactly the circuit ``reduce_to``
    returns for the same limit, so this is ``reduce_to`` read off a sweep
    that reached *qubit_limit*; raises :class:`ReuseError` when no point
    fits.
    """
    if qubit_limit < 1:
        raise ReuseError("qubit limit must be positive")
    for point in points:
        if point.qubits <= qubit_limit:
            return point
    raise ReuseError(
        f"cannot compile to {qubit_limit} qubits "
        f"(reached {min(p.qubits for p in points)})"
    )


@dataclass
class ReuseBenefitReport:
    """Answer to "will qubit reuse benefit this application?".

    Attributes:
        original_qubits / minimum_qubits: sweep endpoints.
        saving_fraction: achievable qubit saving (0..1).
        depth_overhead_at_max: relative logical-depth increase at maximal
            reuse.
        knee_qubits / knee_depth_overhead: deepest saving whose depth
            overhead stays under the knee tolerance.
        beneficial: the recommendation.
    """

    original_qubits: int
    minimum_qubits: int
    saving_fraction: float
    depth_overhead_at_max: float
    knee_qubits: int
    knee_depth_overhead: float
    beneficial: bool


def _saves_enough(qubits: int, original_qubits: int, min_saving: float) -> bool:
    return 1.0 - qubits / original_qubits >= min_saving - 1e-9


def benefit_floor(original_qubits: int, min_saving: float = MIN_SAVING) -> int:
    """The widest width that already passes the benefit test.

    A sweep run with ``min_qubits=benefit_floor(width)`` gives
    :func:`assess_reuse_benefit` the same ``beneficial`` verdict as the
    full sweep: it either reaches this width, which passes, or gets stuck
    earlier, and then it is the full sweep.  Returns 1 (sweep to the end)
    when no width passes.
    """
    for qubits in range(original_qubits, 1, -1):
        if _saves_enough(qubits, original_qubits, min_saving):
            return qubits
    return 1


def assess_reuse_benefit(
    points: List[TradeoffPoint],
    min_saving: float = MIN_SAVING,
    knee_tolerance: float = 0.25,
) -> ReuseBenefitReport:
    """Classify an application as reuse-friendly or not.

    An application benefits when at least *min_saving* of its qubits can be
    saved at all (the paper's resource-capacity view: reuse lets larger
    programs run on smaller machines).  The knee fields quantify how much
    of that saving is available within *knee_tolerance* relative depth
    overhead — the heavy-tail argument of Fig. 3 — for callers who care
    about duration as much as width.
    """
    if not points:
        raise ReuseError("empty tradeoff sweep")
    base = points[0]
    floor = min(points, key=lambda p: p.qubits)
    saving = 1.0 - floor.qubits / base.qubits
    overhead_max = floor.logical_depth / base.logical_depth - 1.0
    knee = base
    for point in points:
        overhead = point.logical_depth / base.logical_depth - 1.0
        if overhead <= knee_tolerance and point.qubits < knee.qubits:
            knee = point
    knee_overhead = knee.logical_depth / base.logical_depth - 1.0
    return ReuseBenefitReport(
        original_qubits=base.qubits,
        minimum_qubits=floor.qubits,
        saving_fraction=saving,
        depth_overhead_at_max=overhead_max,
        knee_qubits=knee.qubits,
        knee_depth_overhead=knee_overhead,
        beneficial=_saves_enough(floor.qubits, base.qubits, min_saving),
    )

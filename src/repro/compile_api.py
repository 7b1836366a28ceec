"""Top-level one-call API: ``caqr_compile``, and the lane registry behind it.

The paper's tool takes a circuit (or QAOA problem graph), a backend, and
user intent (save qubits to a budget / minimise depth / minimise SWAPs)
and returns a compiled dynamic circuit plus a report.  This module wires
the QS/SR passes, the tradeoff explorer, and the baseline transpiler into
that single entry point.

Every engine is wired up once, as a *lane* of :data:`LANES`: a function
of the request (a :class:`~repro.service.service.CompileRequest`, or
anything with its compile fields) and a :class:`StrategySpec` that
returns one :class:`LaneResult`.  ``caqr_compile`` runs the ``caqr`` lane
(``strategy="auto"``) or the ``chain`` lane (``strategy="chain"``)
in-process; :class:`~repro.service.portfolio.PortfolioCompileService`
races a roster of lanes over its pool.  Both go through
:func:`run_lane` and build the report with :func:`assemble_report`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple, Union

import networkx as nx

from repro.analysis.metrics import CircuitMetrics, collect_metrics
from repro.circuit.circuit import QuantumCircuit
from repro.core.chains import ChainReuse
from repro.core.exact import ExactReuse
from repro.core.qs_caqr import QSCaQR
from repro.core.sr_caqr import SRCaQR
from repro.core.sr_commuting import SRCaQRCommuting
from repro.core.tradeoff import (
    _compile_point,
    _points,
    assess_reuse_benefit,
    benefit_floor,
    budget_point,
    select_point,
    sweep_commuting,
    sweep_regular,
)
from repro.core.transform import apply_reuse_chain
from repro.exceptions import ReproError, ReuseError
from repro.hardware.backends import Backend
from repro.stats import Stats
from repro.transpiler.pipeline import transpile

__all__ = [
    "MODES",
    "LANES",
    "CompileReport",
    "LaneResult",
    "StrategySpec",
    "assemble_report",
    "caqr_compile",
    "check_request",
    "commuting_view",
    "run_lane",
]

#: The compile modes (user intents) every strategy accepts.
MODES = ("qubit_budget", "max_reuse", "min_depth", "min_swap")

#: Modes whose output is mapped onto the backend.  The sweep modes report
#: logical circuits, so the lanes of a race compare on equal terms.
MAPPED_MODES = ("qubit_budget", "min_swap")

#: Default node budget of the exact tier (anytime: past this many search
#: states the oracle reports best-so-far with ``optimal=False``).
DEFAULT_EXACT_MAX_NODES = 200_000


@dataclass(frozen=True)
class StrategySpec:
    """One named lane: ``kind`` selects the :data:`LANES` entry, ``params``
    its knob overrides:

    * ``"caqr"`` — the canonical mode-selected pipeline of
      :func:`caqr_compile` (mode may be overridden via ``params["mode"]``);
    * ``"qs"`` — a QS-CaQR sweep variant (``objective``,
      ``lookahead_width``);
    * ``"sr"`` — an SR-CaQR router variant (``trials``, ``objective``);
      requires a backend;
    * ``"commuting"`` — a commuting-pipeline sweep variant
      (``candidate_evaluation``, ``strategy``); graph targets only;
    * ``"chain"`` — the beam-searched chain engine
      (:class:`~repro.core.chains.ChainReuse`; ``dual``, ``beam_width``,
      ``objective``); circuit targets only;
    * ``"exact"`` — the branch-and-bound oracle (``max_nodes``).
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(name: str, kind: str, **params: Any) -> "StrategySpec":
        return StrategySpec(name, kind, tuple(sorted(params.items())))

    def options(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class LaneResult:
    """What one lane computed: the circuit and the lane-side report fields.

    ``mapped`` marks a circuit already on the backend (SR-CaQR's routing,
    a ``min_swap`` sweep pick); :func:`run_lane` maps the others under
    :data:`MAPPED_MODES`.  ``width`` is the logical width the lane
    reached, when the report's saving reads it instead of the output
    metrics.  ``baseline`` and ``beneficial`` are the input's no-reuse
    metrics and benefit verdict, from the lanes that compute them.
    """

    circuit: QuantumCircuit
    mapped: bool = False
    width: Optional[int] = None
    baseline: Optional[CircuitMetrics] = None
    beneficial: Optional[bool] = None
    route_stats: Optional[Stats] = None
    eval_stats: Optional[Stats] = None
    chain_stats: Optional[Stats] = None
    exact_qubits: Optional[int] = None
    exact_optimal: Optional[bool] = None


@dataclass
class CompileReport:
    """Result of :func:`caqr_compile`.

    Attributes:
        circuit: the compiled (hardware-mapped when a backend was given)
            dynamic circuit.
        mode: the strategy that produced it.
        metrics: the paper's metric set for the compiled circuit.
        baseline_metrics: same metrics for the no-reuse baseline compile
            (present when a backend was given).
        reuse_beneficial: the benefit identifier's verdict.
        qubit_saving: fraction of qubits saved vs. the input.
        route_stats: the SR router's counter/timer sink (``"min_swap"``
            mode only; ``None`` otherwise).
        eval_stats: the QS evaluation engine's counter/timer sink for
            the one sweep this compile ran, which stops as soon as the
            report has what it reads (cache hit-rate, candidate
            evaluations, greedy steps).
            Observability only — like the route-stats timers, excluded
            from determinism contracts.  Feeds the ``caqr_reuse_eval_*``
            prefix on ``GET /v1/metrics``.
        sim_stats: analytic-ESP instrumentation for the compiled circuit
            under the backend calibration (``esp`` gauge, per-kind
            instruction counts; present only when a backend was given).
            Feeds the ``caqr_sim_*`` metrics prefix.
        from_cache: ``True`` when the compile service served this report
            without running the compiler — a warm cache entry, an
            in-flight join, or a folded duplicate batch member (see
            ``docs/SERVICE.md``).
        strategy: the winning strategy's name when the report came out of
            a portfolio race (``strategy="portfolio"``); ``None`` on the
            single-strategy path.
        strategy_timings: per-strategy wall-clock seconds from the race
            (observability only — excluded from determinism contracts,
            like the route-stats timers).
        strategy_errors: strategies that failed inside the race, mapped
            to their error messages (the per-strategy error channel).
        optimality_gap: ``winner_qubits - optimal_qubits`` when the exact
            oracle ran to completion; ``None`` when it did not run.
        exact_optimal: the oracle's ``optimal`` flag when it ran
            (``False`` means the anytime budget cut the search short and
            the bound is best-so-far, not proven); ``None`` when the
            exact tier was not in the race.
        chain_stats: the chain engine's counter/timer sink
            (``strategy="chain"`` or a portfolio chain lane): window
            counts, beam sizes, inserted measure/reset tallies, greedy
            fallbacks.  Observability only, like ``eval_stats``.  Feeds
            the ``caqr_chain_*`` prefix on ``GET /v1/metrics``.
    """

    circuit: QuantumCircuit
    mode: str
    metrics: CircuitMetrics
    baseline_metrics: Optional[CircuitMetrics]
    reuse_beneficial: bool
    qubit_saving: float
    route_stats: Optional[Stats] = None
    eval_stats: Optional[Stats] = None
    sim_stats: Optional[Stats] = None
    from_cache: bool = False
    strategy: Optional[str] = None
    strategy_timings: Optional[Dict[str, float]] = None
    strategy_errors: Optional[Dict[str, str]] = None
    optimality_gap: Optional[int] = None
    exact_optimal: Optional[bool] = None
    chain_stats: Optional[Stats] = None


def caqr_compile(
    target: Union[QuantumCircuit, nx.Graph],
    backend: Optional[Backend] = None,
    mode: str = "min_depth",
    qubit_limit: Optional[int] = None,
    reset_style: str = "cif",
    seed: int = 11,
    auto_commuting: bool = True,
    parallel: bool = True,
    cache=None,
    strategy: str = "auto",
    objective: Optional[str] = None,
    portfolio_workers: Optional[int] = None,
    calib_bands: Optional[int] = None,
) -> CompileReport:
    """Compile a circuit or QAOA problem graph with qubit reuse.

    Args:
        target: a :class:`QuantumCircuit` (regular application) or a
            networkx problem graph (commuting QAOA application).
        backend: device to map onto; omit for logical-level output.
        mode: one of

            * ``"qubit_budget"`` — QS-CaQR to *qubit_limit* qubits
              (raises when infeasible);
            * ``"max_reuse"`` — QS-CaQR to the smallest reachable width;
            * ``"min_depth"`` — the sweep point with the best (compiled)
              depth;
            * ``"min_swap"`` — SR-CaQR (requires a backend).
        qubit_limit: required for ``"qubit_budget"``.
        reset_style: reuse reset idiom (``"cif"`` or ``"builtin"``).
        auto_commuting: recognise QAOA-shaped circuits and dispatch them to
            the commuting-gate pipeline (uniform-angle circuits only; the
            regular pipeline handles everything else soundly).
        parallel: allow process-pool candidate scoring on large circuits.
        cache: route the request through the content-addressed compile
            cache (:mod:`repro.service`): ``True`` uses the process-wide
            default service (persistent under ``$CAQR_CACHE_DIR`` when
            set), a directory string persists under that path, a
            :class:`~repro.service.CompileService` uses that instance,
            and ``None``/``False`` (default) compiles directly.  Served
            reports are flagged :attr:`CompileReport.from_cache`.
        strategy: ``"auto"`` (default) runs the single mode-selected
            pipeline; ``"portfolio"`` races every applicable engine —
            the QS variants, SR variants, the commuting pipeline, and
            the exact branch-and-bound tier on small circuits — and
            returns the objective-best result (see
            :class:`~repro.service.portfolio.PortfolioCompileService`
            and ``docs/PORTFOLIO.md``); ``"chain"`` runs the
            beam-searched reuse-chain engine
            (:class:`~repro.core.chains.ChainReuse`, circuit targets
            only — see ``docs/CHAINS.md``), which discovers whole chains
            jointly, is never wider than greedy QS, and switches to the
            trapped-ion dual-register cost model on all-to-all backends.
        objective: the winner criterion — ``"qubits"`` (default),
            ``"depth"``, or ``"est_error"`` (``"est_error"`` needs a
            backend under ``"portfolio"``).  Valid with
            ``strategy="portfolio"`` or ``strategy="chain"``.
        portfolio_workers: process-pool width for the portfolio race
            (``None`` uses the process-wide default service).  An engine
            knob: never changes the winning result, only how fast the
            race runs.
        calib_bands: drift tolerance of the cache key's backend digest —
            calibration values quantised into this many bands per decade
            (see ``docs/SERVICE.md`` and ``docs/BACKENDS.md``).  ``None``
            defers to ``$CAQR_CALIB_BANDS``; ``0`` pins exact digests.
            Only meaningful with ``cache``: it changes which snapshots
            share an entry, never the compiled output.
    """
    if strategy not in ("auto", "portfolio", "chain"):
        raise ReuseError(f"unknown compile strategy {strategy!r}")
    if objective is not None and strategy not in ("portfolio", "chain"):
        raise ReuseError("objective requires strategy='portfolio' or 'chain'")
    if strategy == "chain" and isinstance(target, nx.Graph):
        raise ReuseError(
            "strategy='chain' needs a QuantumCircuit target "
            "(build the QAOA circuit first)"
        )
    check_request(mode, backend, qubit_limit)
    if cache:
        from repro.service.service import resolve_cache

        cache_kwargs = dict(
            backend=backend,
            mode=mode,
            qubit_limit=qubit_limit,
            reset_style=reset_style,
            seed=seed,
            auto_commuting=auto_commuting,
            parallel=parallel,
            strategy=strategy,
            objective=objective,
            portfolio_workers=portfolio_workers,
        )
        if calib_bands is not None:
            # only the caching services understand banding; duck-typed
            # cache objects keep seeing the historical signature
            cache_kwargs["calib_bands"] = calib_bands
        return resolve_cache(cache).compile(target, **cache_kwargs)
    if strategy == "portfolio":
        from repro.service.portfolio import (
            PortfolioCompileService,
            default_portfolio_service,
        )

        ephemeral_service = (
            None
            if portfolio_workers is None
            else PortfolioCompileService(max_workers=portfolio_workers)
        )
        service = ephemeral_service or default_portfolio_service()
        try:
            return service.compile(
                target,
                backend=backend,
                mode=mode,
                qubit_limit=qubit_limit,
                reset_style=reset_style,
                seed=seed,
                auto_commuting=auto_commuting,
                parallel=parallel,
                objective=objective if objective is not None else "qubits",
            )
        finally:
            if ephemeral_service is not None:
                # a one-call service must not leak its worker pool
                ephemeral_service.close()
    request = SimpleNamespace(
        target=target,
        backend=backend,
        mode=mode,
        qubit_limit=qubit_limit,
        reset_style=reset_style,
        seed=seed,
    )
    if strategy == "chain":
        # dual-register cost model on all-to-all (trapped-ion) backends;
        # unlike the chain lane of a race, this path maps its circuit
        # under every mode, and its verdict is whether the engine found
        # any reuse (docs/CHAINS.md)
        params = {"dual": backend is not None and _all_to_all(backend)}
        if objective is not None:
            params["objective"] = objective
        spec = StrategySpec.make("chain", "chain", **params)
        result = run_lane(spec, request, map_always=True)
        result.baseline = _baseline_metrics(request)
        return assemble_report(request, result, strategy="chain")
    view = commuting_view(target, auto_commuting)
    spec = StrategySpec("caqr", "caqr")
    return assemble_report(request, run_lane(spec, request, view, parallel))


def check_request(mode: str, backend, qubit_limit) -> None:
    """Reject a mode outside :data:`MODES` or missing what it needs."""
    if mode not in MODES:
        raise ReuseError(f"unknown compile mode {mode!r}")
    if mode == "min_swap" and backend is None:
        raise ReuseError("min_swap mode needs a backend")
    if mode == "qubit_budget" and qubit_limit is None:
        raise ReuseError("qubit_budget mode needs qubit_limit")


def commuting_view(target, auto_commuting: bool = True):
    """``(graph, gamma, beta)`` when *target* takes the commuting pipeline.

    A problem graph always does (default angles); a circuit does when
    *auto_commuting* recognises it as uniform-angle QAOA, since the
    commuting pipeline sees strictly more reuse freedom.  ``None``
    otherwise: the regular pipeline handles everything soundly.
    """
    if isinstance(target, nx.Graph):
        return target, None, None
    if not auto_commuting:
        return None
    from repro.core.structure import extract_commuting_structure

    structure = extract_commuting_structure(target)
    if structure is None:
        return None
    gamma, beta = structure.uniform_gamma(), structure.uniform_beta()
    if gamma is None or beta is None:
        return None
    return structure.graph, gamma, beta


# -- the lane registry ---------------------------------------------------------


def run_lane(spec, request, view=None, parallel=False, map_always=False) -> LaneResult:
    """Run the :data:`LANES` entry of ``spec.kind`` on *request*.

    *view* is the request's :func:`commuting_view`; *parallel* allows
    process-pool scoring (race lanes run serially: workers must not nest
    pools).  This is the one map-onto-backend rule: a lane's logical
    circuit is mapped at opt-3 under :data:`MAPPED_MODES`, or under every
    mode with *map_always* (``strategy="chain"``).
    """
    lane = LANES.get(spec.kind)
    if lane is None:
        raise ReuseError(f"unknown strategy kind {spec.kind!r}")
    mode = request.mode
    if spec.kind == "caqr":
        mode = spec.options().get("mode", mode)
    check_request(mode, request.backend, request.qubit_limit)
    result = lane(spec, request, mode, view, parallel)
    backend = request.backend
    if backend is not None and not result.mapped and (
        map_always or mode in MAPPED_MODES
    ):
        result.circuit = transpile(
            result.circuit, backend, optimization_level=3, seed=request.seed
        ).circuit
    return result


def _caqr_lane(spec, request, mode, view, parallel) -> LaneResult:
    """The paper's mode-selected pipeline (``strategy="auto"``).

    Each mode runs only the work its report reads: ``reuse_beneficial``
    needs the sweep only down to the benefit floor, and only
    ``min_depth`` reads compiled sweep metrics (see
    docs/ARCHITECTURE.md).  The baseline and verdict are computed here,
    so a race's canonical lane pays for them inside its own worker.
    """
    eval_stats = Stats()
    floor = benefit_floor(_width(request.target))
    route_stats = point = None
    if mode == "min_swap":
        circuit, route_stats = _route(request, view, parallel)
        points = _sweep(request, view, parallel, eval_stats, min_qubits=floor)
    else:
        stop = min(request.qubit_limit, floor) if mode == "qubit_budget" else 1
        points = _sweep(request, view, parallel, eval_stats, min_qubits=stop,
                        mapped=mode == "min_depth")
        point, circuit = _pick(points, request, mode)
    baseline, beneficial = _ancillary(request, view, parallel, points)
    return LaneResult(
        circuit,
        mapped=mode == "min_swap",
        # SR-CaQR picks its width while routing: the report reads it off
        # the mapped circuit
        width=None if point is None else point.qubits,
        baseline=baseline,
        beneficial=beneficial,
        route_stats=route_stats,
        eval_stats=eval_stats,
    )


def _qs_lane(spec, request, mode, view, parallel) -> LaneResult:
    options = spec.options()
    compiler = QSCaQR(
        objective=options.get("objective", "depth"),
        reset_style=request.reset_style,
        lookahead_width=options.get("lookahead_width"),
        parallel=parallel,
    )
    points = _points(compiler.sweep(request.target), None, request.seed)
    return LaneResult(_pick(points, request, mode)[1], mapped=mode == "min_swap")


def _commuting_lane(spec, request, mode, view, parallel) -> LaneResult:
    options = spec.options()
    points = _sweep(
        request,
        view,
        parallel,
        candidate_evaluation=options.get("candidate_evaluation", "schedule"),
        strategy=options.get("strategy", "greedy"),
    )
    return LaneResult(_pick(points, request, mode)[1], mapped=mode == "min_swap")


def _sr_lane(spec, request, mode, view, parallel) -> LaneResult:
    options = spec.options()
    circuit, route_stats = _route(
        request,
        view,
        parallel,
        trials=options.get("trials", 3),
        objective=options.get("objective", "swaps"),
        seed_base=_sr_seed_base(request, spec.name),
    )
    return LaneResult(circuit, mapped=True, route_stats=route_stats)


def _chain_lane(spec, request, mode, view, parallel) -> LaneResult:
    options = spec.options()
    if isinstance(request.target, nx.Graph):
        raise ReuseError(
            "chain lane needs a QuantumCircuit target "
            "(the commuting lanes cover graph inputs)"
        )
    budget = request.qubit_limit if mode == "qubit_budget" else None
    chain_stats = Stats()
    engine = ChainReuse(
        objective=options.get(
            "objective", "depth" if mode == "min_depth" else "qubits"
        ),
        reset_style=request.reset_style,
        beam_width=options.get("beam_width", 8),
        register_budget=budget,
        dual_register=bool(options.get("dual", False)),
        stats=chain_stats,
    )
    result = engine.run(request.target)
    if not result.feasible:
        raise ReuseError(
            f"chain lane cannot reach {budget} qubits (reached {result.qubits})"
        )
    return LaneResult(
        result.circuit,
        width=result.qubits,
        beneficial=bool(result.pairs),
        chain_stats=chain_stats,
    )


def _exact_lane(spec, request, mode, view, parallel) -> LaneResult:
    solver = ExactReuse(
        reset_style=request.reset_style,
        max_nodes=spec.options().get("max_nodes", DEFAULT_EXACT_MAX_NODES),
    )
    result = solver.run(request.target)
    circuit = result.circuit
    if mode == "qubit_budget":
        limit = request.qubit_limit
        if result.qubits > limit:
            raise ReuseError(
                f"exact tier cannot reach {limit} qubits "
                f"(optimum is {result.qubits})"
                if result.optimal
                else f"exact tier hit its budget above {limit} qubits"
            )
        prefix = result.pairs[: max(0, request.target.num_qubits - limit)]
        circuit = apply_reuse_chain(
            request.target, prefix, reset_style=request.reset_style
        )
    return LaneResult(
        circuit, exact_qubits=result.qubits, exact_optimal=result.optimal
    )


#: ``StrategySpec.kind`` -> lane.  A lane takes ``(spec, request, mode,
#: view, parallel)`` and returns a :class:`LaneResult`.
LANES = {
    "caqr": _caqr_lane,
    "qs": _qs_lane,
    "sr": _sr_lane,
    "commuting": _commuting_lane,
    "chain": _chain_lane,
    "exact": _exact_lane,
}


# -- shared lane machinery -----------------------------------------------------


def _width(target) -> int:
    if isinstance(target, nx.Graph):
        return target.number_of_nodes()
    return target.num_qubits


def _all_to_all(backend) -> bool:
    """Whether *backend*'s coupling is complete (the trapped-ion regime)."""
    n = backend.coupling.num_qubits
    return len(backend.coupling.edges) == n * (n - 1) // 2


def _sweep(request, view, parallel, stats=None, min_qubits=1, mapped=False,
           **engine):
    """The QS-CaQR sweep of the request's target (commuting on a *view*),
    hardware-mapped when *mapped*; *engine* holds commuting sweep knobs."""
    common = dict(
        backend=request.backend if mapped else None,
        reset_style=request.reset_style,
        seed=request.seed,
        min_qubits=min_qubits,
        parallel=parallel,
        stats=stats,
    )
    if view is not None:
        graph, gamma, beta = view
        return sweep_commuting(graph, gamma=gamma, beta=beta, **common, **engine)
    return sweep_regular(request.target, **common)


def _pick(points, request, mode):
    """The mode's point of a sweep, and the circuit reported for it.

    The budget point and the ``max_reuse`` pick read logical metrics
    only, so points are mapped onto the backend only under ``min_depth``
    (compiled depth) and ``min_swap`` (SWAP count), unless the sweep
    already mapped them.  A ``min_swap`` pick reports the mapping of the
    point it selects; every other pick reports the logical circuit.
    """
    if mode == "qubit_budget":
        point = budget_point(points, request.qubit_limit)
        return point, point.circuit
    min_swap = mode == "min_swap"
    if request.backend is not None and mode in ("min_depth", "min_swap"):
        for point in points:
            if point.compiled_depth is None:
                _compile_point(point, request.backend, request.seed, keep=min_swap)
    point = select_point(points, mode)
    return point, point.compiled_circuit if min_swap else point.circuit


def _route(request, view, parallel, **run):
    """SR-CaQR (commuting on a *view*): the routed circuit and the
    router's stats; *run* holds the router's per-run knobs."""
    # ``parallel`` means "allow": map it onto the SR router's tri-state
    # knob (None = auto-detect, False = serial)
    options = dict(
        reset_style=request.reset_style,
        parallel=None if parallel else False,
    )
    if view is not None:
        graph, gamma, beta = view
        if gamma is not None:
            options.update(gamma=gamma, beta=beta)
        router = SRCaQRCommuting(request.backend, **options)
        result = router.run(graph, qubit_limit=request.qubit_limit, **run)
    else:
        router = SRCaQR(request.backend, **options)
        result = router.run(request.target, **run)
    return result.circuit, router.stats


def _sr_seed_base(request, lane: str) -> int:
    """Per-lane hint-seed anchor, derived from the request fingerprint.

    Each SR lane explores a distinct placement-seed stream (instead of
    varying only trial counts/objectives), yet stays a pure function of
    (request, lane name) — so serial and pooled races, and every replica
    of a fingerprint, derive identical seeds.
    """
    digest = hashlib.sha256(
        f"{request.fingerprint()}:{lane}".encode()
    ).hexdigest()
    return int(digest[:8], 16)


def _esp_stats(circuit, backend) -> Optional[Stats]:
    """Analytic-ESP instrumentation for a hardware-mapped compile.

    ``None`` without a backend, or when the calibration cannot score the
    circuit (a :class:`~repro.exceptions.ReproError`, e.g. logical-level
    output) — a report must never fail over observability.  Any other
    error is a bug and propagates.
    """
    if backend is None:
        return None
    from repro.sim.metrics import estimated_success_probability

    stats = Stats()
    try:
        estimated_success_probability(
            circuit, backend.calibration, stats=stats
        )
    except ReproError:
        return None
    return stats


def _baseline_metrics(request, view=None, first_point=None):
    """Metrics of the no-reuse opt-3 compile of the request's target.

    A graph (or QAOA *view*) compiles its textbook QAOA circuit.  A
    hardware-mapped sweep already compiled its first point with the same
    options; that compile is reused whenever the point is gate-for-gate
    the baseline circuit (always for a circuit target; for a graph only
    when the commuting schedule matches the textbook QAOA circuit).
    """
    backend = request.backend
    if backend is None:
        return None
    if view is not None:
        from repro.workloads.qaoa import qaoa_maxcut_circuit

        graph, gamma, beta = view
        if gamma is not None:
            circuit = qaoa_maxcut_circuit(graph, gammas=[gamma], betas=[beta])
        else:
            circuit = qaoa_maxcut_circuit(graph)
    else:
        circuit = request.target
    if (
        first_point is not None
        and first_point.compiled_circuit is not None
        and first_point.circuit == circuit
    ):
        compiled = first_point.compiled_circuit
    else:
        compiled = transpile(
            circuit, backend, optimization_level=3, seed=request.seed
        ).circuit
    return collect_metrics(compiled, backend.calibration)


def _ancillary(request, view, parallel, points=None):
    """The input's baseline metrics and benefit verdict.

    Reads the caller's sweep when given one; otherwise sweeps to the
    benefit floor, which gives the full sweep's verdict.
    """
    if points is None:
        floor = benefit_floor(_width(request.target))
        points = _sweep(request, view, parallel, min_qubits=floor)
    return (
        _baseline_metrics(request, view, points[0]),
        assess_reuse_benefit(points).beneficial,
    )


def assemble_report(
    request, result: LaneResult, metrics=None, **fields
) -> CompileReport:
    """The report of *result*: metrics (unless the caller has them), the
    saving, and analytic ESP under a backend; *fields* carry the
    strategy fields of a race or the chain path."""
    backend = request.backend
    if metrics is None:
        metrics = collect_metrics(
            result.circuit, backend.calibration if backend else None
        )
    width = metrics.qubits_used if result.width is None else result.width
    return CompileReport(
        circuit=result.circuit,
        mode=request.mode,
        metrics=metrics,
        baseline_metrics=result.baseline,
        reuse_beneficial=result.beneficial,
        qubit_saving=1.0 - width / _width(request.target),
        route_stats=result.route_stats,
        eval_stats=result.eval_stats,
        sim_stats=_esp_stats(result.circuit, backend),
        chain_stats=result.chain_stats,
        **fields,
    )

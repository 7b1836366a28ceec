"""Portfolio compilation: race every engine, keep the best result.

CaQR's engines embody different heuristics — QS-CaQR's depth-greedy pair
selection, its duration objective, narrow-lookahead variants, SR-CaQR's
trial seeds, the commuting-gate pipeline's degree/lifetime sweeps — and
none dominates on every circuit.  :class:`PortfolioCompileService` runs a
deterministic roster of them (lanes of :data:`repro.compile_api.LANES`,
the registry ``caqr_compile`` runs too) concurrently over the repo's
process-pool idiom, adds the **exact tier**
(:class:`~repro.core.exact.ExactReuse`, gated on circuit size and a node
budget) when the circuit is small enough to solve to optimality, and
declares a winner under a user-declared objective:

* ``"qubits"`` — fewest active qubits (ties: depth);
* ``"depth"`` — smallest depth (ties: qubits);
* ``"est_error"`` — lowest estimated error ``1 - ESP`` against the
  backend calibration (requires a backend).

**Determinism.**  The winner is *not* the first strategy to finish — a
wall-clock race would make the result depend on worker count and
machine load.  Every strategy runs to completion (strategies are pure
functions of the request), and the winner is the minimum of a fully
deterministic objective key, so ``workers=1`` and ``workers=N`` — and a
:class:`~repro.service.net.client.RemoteCompileService` on the other
side of a socket — return bit-identical circuits.  Strategy *timings*
are recorded for observability but excluded from that contract, exactly
like the route-stats timers.

**Error channel.**  A strategy raising inside the pool must not sink
the portfolio or silently vanish from the race: the worker catches the
exception and returns it as data, the report's ``strategy_errors`` maps
strategy name to the message, and ``portfolio_errors:<name>`` counts it
in :class:`~repro.stats.Stats`.  Only if *every*
strategy fails does the portfolio raise.

**Self-tuning.**  Per-strategy win counts live in the stats sink
(``portfolio_wins:<name>`` / ``portfolio_compiles``); historically
winning strategies are submitted to the pool first so their results are
available earliest.  Scheduling order never changes the winner — only
how soon the pool converges — so self-tuning cannot break determinism.

See ``docs/PORTFOLIO.md`` for the full contract and
``examples/portfolio_compile.py`` for a tour.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Union

import networkx as nx

from repro.analysis.metrics import collect_metrics
from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import (
    DEFAULT_EXACT_MAX_NODES,
    CompileReport,
    CompileRequest,
    LaneResult,
    StrategySpec,
    _all_to_all,
    _ancillary,
    assemble_report,
    check_request,
    commuting_view,
    run_lane,
)
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.parallel import WorkerPool, default_workers, fans_out
from repro.sim.metrics import estimated_success_probability
from repro.stats import Stats

__all__ = [
    "OBJECTIVES",
    "StrategySpec",
    "StrategyOutcome",
    "PortfolioCompileService",
    "default_portfolio_service",
    "peek_default_portfolio_service",
    "reset_default_portfolio_service",
    "set_default_portfolio_state_path",
]

#: The objectives a portfolio compile may optimise.
OBJECTIVES = ("qubits", "depth", "est_error")

#: Default width gate of the exact tier: circuits wider than this skip
#: the oracle entirely (branch-and-bound cost grows super-exponentially
#: with width; the greedy strategies still race).
DEFAULT_EXACT_MAX_QUBITS = 10


@dataclass
class StrategyOutcome:
    """What one lane brought back from the race (or how it died)."""

    name: str
    elapsed: float = 0.0
    error: Optional[str] = None
    result: Optional[LaneResult] = None


def _run_strategy_worker(payload) -> StrategyOutcome:
    """Pool worker: run one lane, never raise.

    A failing lane is *data* — the per-strategy error channel the
    poisoned-strategy test pins — so the portfolio loses one lane, not
    the race.  Lanes run with ``parallel=False``, and a pooled race runs
    them in :class:`~repro.parallel.WorkerPool` workers, where
    :mod:`repro.parallel`'s nesting rule keeps every fan-out serial.
    The serial path calls this very function, so both paths compute
    identical results.
    """
    spec, request, view = payload
    start = time.perf_counter()
    try:
        result, error = run_lane(spec, request, view), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return StrategyOutcome(spec.name, time.perf_counter() - start, error, result)


# -- the service ---------------------------------------------------------------


class PortfolioCompileService:
    """Race the engine roster; return the objective-best report.

    Args:
        max_workers: width of the persistent
            :class:`~repro.parallel.WorkerPool` the lanes race on
            (default :func:`repro.parallel.default_workers`).
        stats: optional shared :class:`Stats` sink for win-rate /
            error counters and per-strategy timers.
        exact_max_nodes: anytime node budget handed to the exact tier.
        exact_max_qubits: circuits wider than this skip the exact tier.
        strategies: explicit roster override (a list of
            :class:`StrategySpec`); ``None`` builds the default roster
            per request.  The override replaces the roster wholesale —
            tests use it to inject poisoned strategies.
        state_path: optional JSON file persisting the win-rate counters
            (the self-tuned submission order) across restarts — loaded
            on construction, rewritten atomically after every race.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        stats: Optional[Stats] = None,
        exact_max_nodes: int = DEFAULT_EXACT_MAX_NODES,
        exact_max_qubits: int = DEFAULT_EXACT_MAX_QUBITS,
        strategies: Optional[List[StrategySpec]] = None,
        state_path: Optional[str] = None,
    ):
        self.max_workers = max_workers or default_workers()
        self.stats = stats if stats is not None else Stats()
        self.exact_max_nodes = exact_max_nodes
        self.exact_max_qubits = exact_max_qubits
        self.strategies = strategies
        self.state_path = state_path
        self._workers = WorkerPool(self.max_workers, stats=self.stats)
        if state_path:
            self._load_state()

    def worker_pool(self) -> WorkerPool:
        """The persistent race pool; its processes spawn on first use."""
        return self._workers

    def close(self) -> None:
        """Shut the pool down (idempotent; the next use respawns it)."""
        self._workers.shutdown()

    # -- win-rate persistence --------------------------------------------------

    _STATE_SCHEMA = 1

    @staticmethod
    def _is_state_counter(name: str) -> bool:
        return name == "portfolio_compiles" or name.startswith("portfolio_wins:")

    def _load_state(self) -> None:
        """Merge persisted win-rate counters into the stats sink.

        A missing, unreadable, or schema-mismatched file is a clean
        cold start, never an error — state is an optimisation hint.
        """
        try:
            with open(self.state_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self._STATE_SCHEMA
        ):
            return
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            return
        for name, value in counters.items():
            if self._is_state_counter(name) and isinstance(value, int):
                self.stats.count(name, value)
        self.stats.count("portfolio_state_loads")

    def _save_state(self) -> None:
        """Atomically persist the win-rate counters (best-effort)."""
        if not self.state_path:
            return
        counters = {
            name: value
            for name, value in self.stats.counters.items()
            if self._is_state_counter(name)
        }
        payload = {"schema": self._STATE_SCHEMA, "counters": counters}
        directory = os.path.dirname(os.path.abspath(self.state_path))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".state-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_path, self.state_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.count("portfolio_state_errors")

    # -- roster ----------------------------------------------------------------

    def roster(self, request: CompileRequest, view=None) -> List[StrategySpec]:
        """The deterministic strategy roster for *request*.

        Depends only on request content (target kind/width, backend,
        mode), never on machine state, so every replica of a request —
        local, pooled, or remote — races the same lanes.  *view* is the
        request's :func:`~repro.compile_api.commuting_view`.
        """
        if self.strategies is not None:
            return list(self.strategies)
        commuting = isinstance(request.target, nx.Graph) or view is not None
        specs: List[StrategySpec] = [StrategySpec.make("greedy", "caqr")]
        if commuting:
            specs.append(
                StrategySpec.make(
                    "commuting-degree", "commuting", candidate_evaluation="degree"
                )
            )
            specs.append(
                StrategySpec.make(
                    "commuting-lifetime", "commuting", strategy="lifetime"
                )
            )
        else:
            specs.append(StrategySpec.make("qs-duration", "qs", objective="duration"))
            specs.append(StrategySpec.make("qs-narrow", "qs", lookahead_width=1))
            specs.append(StrategySpec.make("chain", "chain"))
            if request.backend is not None and _all_to_all(request.backend):
                # trapped-ion regime: also race the dual-register cost model
                specs.append(StrategySpec.make("chain-dual", "chain", dual=True))
            if request.target.num_qubits <= self.exact_max_qubits:
                specs.append(
                    StrategySpec.make(
                        "exact", "exact", max_nodes=self.exact_max_nodes
                    )
                )
        if request.backend is not None and request.mode == "min_swap":
            specs.append(StrategySpec.make("sr-trials-5", "sr", trials=5))
            if not commuting:
                specs.append(StrategySpec.make("sr-esp", "sr", objective="esp"))
        return specs

    def _win_rate(self, name: str) -> float:
        total = self.stats.counters.get("portfolio_compiles", 0)
        if not total:
            return 0.0
        return self.stats.counters.get(f"portfolio_wins:{name}", 0) / total

    # -- the race --------------------------------------------------------------

    def compile(
        self,
        target: Union[QuantumCircuit, nx.Graph],
        backend: Optional[Backend] = None,
        **knobs: Any,
    ) -> CompileReport:
        """Portfolio ``caqr_compile``: race the roster, keep the best.

        *knobs* are the other :class:`CompileRequest` fields, by name;
        ``objective`` defaults to ``"qubits"``.  The returned report
        carries the winner's circuit and metrics along with the portfolio
        fields (``strategy``, ``strategy_timings``, ``strategy_errors``,
        ``optimality_gap``, ``exact_optimal``).
        """
        request = CompileRequest(target, backend, **knobs)
        objective = "qubits" if request.objective is None else request.objective
        if objective not in OBJECTIVES:
            raise ReuseError(
                f"unknown portfolio objective {objective!r} "
                f"(choose from {', '.join(OBJECTIVES)})"
            )
        if objective == "est_error" and backend is None:
            raise ReuseError("est_error objective needs a backend")
        check_request(request.mode, backend, request.qubit_limit, request.reset_style)
        # the lanes run the single-strategy request: SR lanes derive their
        # hint seeds from its fingerprint (``_sr_seed_base``).  Taking it
        # here caches the backend digest on the request, so a pooled lane
        # unpickles it instead of encoding the backend again.
        request = replace(
            request,
            strategy="auto",
            objective=None,
            portfolio_workers=None,
            calib_bands=None,
        )
        request.fingerprint()
        view = commuting_view(target, request.auto_commuting)
        specs = self.roster(request, view)
        if not specs:
            raise ReuseError("empty portfolio roster")
        ordered = sorted(
            specs, key=lambda spec: (-self._win_rate(spec.name), spec.name)
        )
        outcomes = self._run_all(ordered, request, view)
        return self._select(request, view, ordered, outcomes, objective)

    def _run_all(
        self, specs: List[StrategySpec], request: CompileRequest, view
    ) -> List[StrategyOutcome]:
        lanes = [(spec, request, view) for spec in specs]
        parallel = None if request.parallel else False
        if fans_out(parallel, len(specs), self.max_workers):
            self.stats.count("portfolio_parallel_races")
            with self.stats.timed("portfolio_race"):
                return self.worker_pool().map(_run_strategy_worker, lanes)
        self.stats.count("portfolio_serial_races")
        with self.stats.timed("portfolio_race"):
            return [_run_strategy_worker(lane) for lane in lanes]

    # -- winner selection ------------------------------------------------------

    def _select(
        self,
        request: CompileRequest,
        view,
        specs: List[StrategySpec],
        outcomes: List[StrategyOutcome],
        objective: str,
    ) -> CompileReport:
        stats = self.stats
        stats.count("portfolio_compiles")
        calibration = (
            request.backend.calibration if request.backend is not None else None
        )
        errors: Dict[str, str] = {}
        timings: Dict[str, float] = {}
        candidates: List[Tuple[tuple, StrategyOutcome, Any]] = []
        for outcome in outcomes:
            timings[outcome.name] = outcome.elapsed
            stats.add_time(f"portfolio_strategy:{outcome.name}", outcome.elapsed)
            if outcome.result is None:
                errors[outcome.name] = outcome.error or "strategy returned nothing"
                stats.count(f"portfolio_errors:{outcome.name}")
                continue
            metrics = collect_metrics(outcome.result.circuit, calibration)
            if (
                request.mode == "qubit_budget"
                and metrics.qubits_used > request.qubit_limit
            ):
                errors[outcome.name] = (
                    f"result uses {metrics.qubits_used} qubits, "
                    f"budget is {request.qubit_limit}"
                )
                stats.count(f"portfolio_errors:{outcome.name}")
                continue
            key = self._objective_key(outcome, metrics, objective, request)
            candidates.append((key, outcome, metrics))
        if not candidates:
            detail = "; ".join(f"{name}: {msg}" for name, msg in sorted(errors.items()))
            raise ReuseError(f"every portfolio strategy failed ({detail})")
        candidates.sort(key=lambda entry: entry[0])
        _, winner, winner_metrics = candidates[0]
        stats.count(f"portfolio_wins:{winner.name}")

        results = [o.result for o in outcomes if o.result is not None]
        exact = next((r for r in results if r.exact_qubits is not None), None)
        optimality_gap: Optional[int] = None
        exact_optimal: Optional[bool] = None
        if exact is not None:
            exact_optimal = exact.exact_optimal
            stats.count(
                "portfolio_oracle_optimal"
                if exact.exact_optimal
                else "portfolio_oracle_budget_cut"
            )
            if exact.exact_optimal:
                optimality_gap = winner_metrics.qubits_used - exact.exact_qubits

        result = winner.result
        kinds = {spec.name: spec.kind for spec in specs}
        if kinds[winner.name] != "caqr":
            # the baseline and verdict are properties of the *input*:
            # borrow the canonical lane's, and recompute only when it died
            canonical = next(
                (o.result for o in outcomes
                 if o.result is not None and kinds[o.name] == "caqr"),
                None,
            )
            if canonical is not None:
                baseline, beneficial = canonical.baseline, canonical.beneficial
            else:
                baseline, beneficial = _ancillary(request, view, parallel=False)
            # the saving reads the winner's output metrics
            result = replace(
                result, width=None, baseline=baseline, beneficial=beneficial
            )
        # chain-engine observability survives even when another lane
        # wins the race: the first chain lane's counters ride along
        result.chain_stats = next(
            (r.chain_stats for r in results if r.chain_stats is not None), None
        )
        report = assemble_report(
            request,
            result,
            winner_metrics,
            strategy=winner.name,
            strategy_timings=timings,
            strategy_errors=errors,
            optimality_gap=optimality_gap,
            exact_optimal=exact_optimal,
        )
        self._save_state()
        return report

    def _objective_key(
        self,
        outcome: StrategyOutcome,
        metrics,
        objective: str,
        request: CompileRequest,
    ) -> tuple:
        if objective == "qubits":
            head: tuple = (metrics.qubits_used, metrics.depth)
        elif objective == "depth":
            head = (metrics.depth, metrics.qubits_used)
        else:  # est_error
            error = 1.0 - estimated_success_probability(
                outcome.result.circuit, request.backend.calibration
            )
            head = (error, metrics.qubits_used, metrics.depth)
        # the strategy name is the final tie-break: fully deterministic,
        # independent of completion order and worker count
        return head + (outcome.name,)


# -- process-wide default (win-rate history accumulates across calls) ----------

_default_portfolio: Optional[PortfolioCompileService] = None
_default_state_path: Optional[str] = None


def default_portfolio_service() -> PortfolioCompileService:
    """The lazily created process-wide portfolio service.

    ``caqr_compile(strategy="portfolio")`` routes through this instance
    so the win-rate history (and therefore the pool submission order)
    improves over a process's lifetime.  When a state path is configured
    (:func:`set_default_portfolio_state_path`, or implicitly
    ``$CAQR_CACHE_DIR/portfolio_state.json`` when that variable is set)
    the history also survives restarts.
    """
    global _default_portfolio
    if _default_portfolio is None:
        state_path = _default_state_path
        if state_path is None:
            cache_dir = os.environ.get("CAQR_CACHE_DIR") or None
            if cache_dir:
                state_path = os.path.join(
                    os.path.expanduser(cache_dir), "portfolio_state.json"
                )
        _default_portfolio = PortfolioCompileService(state_path=state_path)
    return _default_portfolio


def peek_default_portfolio_service() -> Optional[PortfolioCompileService]:
    """The process-wide service if it exists, without creating one.

    The metrics endpoint uses this to fold portfolio win rates into
    ``GET /v1/metrics`` without forcing an idle service into being.
    """
    return _default_portfolio


def set_default_portfolio_state_path(path: Optional[str]) -> None:
    """Pin where the process-wide service persists win-rate state.

    ``repro serve --cache-dir DIR`` calls this with
    ``DIR/portfolio_state.json`` so self-tuning survives a redeploy.
    Resets the current default service so the next use reloads state.
    """
    global _default_portfolio, _default_state_path
    _default_state_path = path
    _default_portfolio = None


def reset_default_portfolio_service() -> None:
    """Forget the process-wide portfolio service (tests isolate stats)."""
    global _default_portfolio
    _default_portfolio = None

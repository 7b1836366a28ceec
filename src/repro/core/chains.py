"""Joint reuse-chain discovery: beam search over window compatibility.

The greedy QS/SR engines commit to one reuse pair at a time and never
backtrack; the exact oracle (:mod:`repro.core.exact`) enumerates every
merge plan but only scales to ~10 qubits.  This module sits between
them: a **beam search over abstract chain states** that scores whole
chains ``q_i -> q_j -> q_k`` instead of one pair at a time, guided by
the Kuhn-matching width floor, at polynomial cost.

The search works on the :class:`~repro.core.windows.WindowAnalysis`
abstraction — a state is a tuple of chains (ordered original qubits
sharing one wire) and validity never materialises a circuit.  Each beam
level applies one more merge; children are deduplicated by the interned
canonical state, ranked by an objective-aware key whose head is the
matching floor (the reuse-potential lookahead lifted from pairs to
states), and the best ``beam_width`` survive.  A child's floor is never
below its parent's, so children are ranked by a lower-bound key first
and only those that can still enter the beam pay for the valid-merge
scan and the matching.  Terminal states (no valid merge left, or the
register budget reached) are materialised pair by pair with
:func:`~repro.core.transform.apply_reuse_pair`, each shared plan prefix
once — per-step wire labels, exactly the plan format the greedy engines
emit — and the final winner is picked on the materialised circuits.

Two cost models:

* **generic** (``objective="qubits" | "depth" | "est_error"``): minimise
  width first; depth ranks states by a chain-load proxy (the longest
  serialised wire) and breaks materialised ties by true depth;
  ``est_error`` additionally charges every inserted measure/reset,
  preferring plans that reach the same width through terminal-measure
  reuse, and breaks materialised ties by estimated duration.
* **dual-register** (``dual_register=True``, after DeCross et al.,
  arXiv:2210.08039): the trapped-ion regime where connectivity is
  all-to-all (routing is free) and mid-circuit measurement/reset
  dominates the error budget.  The search stops merging the moment a
  state fits ``register_budget`` wires and minimises *inserted*
  mid-circuit measure/reset count — a merge whose source chain ends in
  a terminal measurement inserts no new measurement
  (:func:`~repro.core.transform.apply_reuse_pair` reuses it), so chains
  are chosen to end on measured windows wherever possible.

A greedy guard keeps the subsystem conservative: when the beam's best
width does not reach the matching floor, the greedy QS sweep runs as a
fallback candidate, so ``ChainReuse`` is never wider than greedy QS on
any circuit where both apply.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.core.conditions import ReusePair
from repro.core.transform import apply_reuse_pair
from repro.core.windows import Reach, State, WindowAnalysis
from repro.exceptions import ReuseError
from repro.stats import Stats
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = ["ChainPlan", "ChainReuseResult", "ChainReuse"]

_OBJECTIVES = ("qubits", "depth", "est_error")


@dataclass(frozen=True)
class ChainPlan:
    """One abstract merge plan, before materialisation.

    Attributes:
        pairs: per-step wire-label reuse pairs, ``apply_reuse_chain``-ready.
        chains: the final wire occupancy in *original* qubit labels.
        width: wires the plan leaves (``num_qubits - len(pairs)``).
        inserted_measures: measurements the transform will insert (merges
            whose source chain does *not* end in a terminal measurement).
        inserted_resets: resets the transform will insert (every merge).
    """

    pairs: Tuple[ReusePair, ...]
    chains: State
    width: int
    inserted_measures: int
    inserted_resets: int

    @property
    def mid_circuit_ops(self) -> int:
        """Dynamic operations the plan adds mid-circuit (the dual-register
        cost: measure + reset per merge, minus reused terminal measures)."""
        return self.inserted_measures + self.inserted_resets


@dataclass
class ChainReuseResult:
    """Outcome of one chain search.

    Attributes:
        circuit: the materialised circuit.
        qubits: its width.
        depth: its logical depth.
        pairs: the applied plan (per-step wire labels).
        plan: the abstract :class:`ChainPlan` behind ``pairs``.
        feasible: whether ``register_budget`` (if any) was met.
        from_greedy: the greedy-QS guard produced the final plan (the
            beam alone could not match it).
        floor: the matching-bound width floor of the input circuit.
    """

    circuit: QuantumCircuit
    qubits: int
    depth: int
    pairs: List[ReusePair]
    plan: ChainPlan
    feasible: bool = True
    from_greedy: bool = False
    floor: int = 0
    duration_dt_cached: Optional[int] = field(default=None, repr=False)

    @property
    def duration_dt(self) -> int:
        if self.duration_dt_cached is None:
            self.duration_dt_cached = circuit_duration_dt(self.circuit)
        return self.duration_dt_cached


@dataclass
class _BeamState:
    """One node of the beam: an abstract state plus its search bookkeeping.

    A child starts as a cheap record: ``reach`` and ``options`` are
    ``None`` and ``floor`` is its parent's, a lower bound on its own.
    :meth:`ChainReuse._settle` runs the kernel and fills them in.
    ``loads`` are the per-wire load proxies and ``load`` their maximum.
    """

    wires: State
    plan: Tuple[ReusePair, ...]
    inserted_measures: int
    loads: Tuple[int, ...]
    load: int
    floor: int
    reach: Optional[Reach] = None
    options: Optional[List[Tuple[int, int]]] = None


class ChainReuse:
    """Beam-searched joint chain construction over reuse windows.

    Args:
        objective: ``"qubits"`` (width, then depth), ``"depth"`` (width,
            then aggressively shallow chains), or ``"est_error"`` (width,
            then fewest inserted dynamic ops, then duration).
        reset_style: reuse reset idiom (``"cif"`` or ``"builtin"``).
        beam_width: surviving states per search level.
        register_budget: stop merging once a state fits this many wires
            (the trapped-ion register size, or a ``qubit_budget`` limit).
            ``None`` merges to exhaustion.
        dual_register: trapped-ion cost model — minimise inserted
            mid-circuit measure/reset count instead of raw width.
            Requires ``register_budget``-style stopping to be meaningful
            (without a budget it stops at the matching floor).
        materialize_top: abstract candidates to materialise before the
            final circuit-level comparison.
        greedy_guard: run the greedy QS sweep as a fallback candidate
            whenever the beam does not reach the matching floor, so the
            result is never wider than greedy QS.
        stats: optional shared :class:`~repro.stats.Stats`
            sink; a fresh one is created when omitted.
    """

    def __init__(
        self,
        objective: str = "qubits",
        reset_style: str = "cif",
        beam_width: int = 8,
        register_budget: Optional[int] = None,
        dual_register: bool = False,
        materialize_top: int = 4,
        greedy_guard: bool = True,
        stats: Optional[Stats] = None,
    ):
        if objective not in _OBJECTIVES:
            raise ReuseError(f"unknown chain objective {objective!r}")
        if reset_style not in ("cif", "builtin"):
            raise ReuseError(f"unknown reset style {reset_style!r}")
        if beam_width < 1:
            raise ReuseError("beam_width must be at least 1")
        if register_budget is not None and register_budget < 1:
            raise ReuseError("register_budget must be positive")
        if materialize_top < 1:
            raise ReuseError("materialize_top must be at least 1")
        self.objective = objective
        self.reset_style = reset_style
        self.beam_width = beam_width
        self.register_budget = register_budget
        self.dual_register = dual_register
        self.materialize_top = materialize_top
        self.greedy_guard = greedy_guard
        self.stats = stats if stats is not None else Stats()

    # -- scoring ----------------------------------------------------------------

    def _abstract_key(self, state: _BeamState) -> Tuple:
        """Beam ranking key (smaller is better), fully deterministic.

        The head is the optimistic matching floor — the lookahead that
        stops the beam from greedily taking a merge that strands future
        reuse.  The tail is the plan itself, so ties never depend on
        construction order.
        """
        plan_key = tuple((p.source, p.target) for p in state.plan)
        width = len(state.wires)
        if self.dual_register:
            budget = self.register_budget
            over = 0 if budget is None else max(0, state.floor - budget)
            return (
                over,
                state.inserted_measures,
                len(state.plan),
                state.floor,
                width,
                state.load,
                plan_key,
            )
        if self.objective == "depth":
            return (state.floor, width, state.load, state.inserted_measures, plan_key)
        if self.objective == "est_error":
            return (
                state.floor,
                width,
                state.inserted_measures + len(state.plan),
                state.load,
                plan_key,
            )
        return (state.floor, width, state.inserted_measures, state.load, plan_key)

    def _final_key(self, plan: ChainPlan, circuit: QuantumCircuit) -> Tuple:
        """Materialised ranking key (smaller is better)."""
        if self.dual_register:
            # an explicit register size is a hard constraint: plans that
            # fit beat any mid-op saving from an over-budget plan
            over = 0
            if self.register_budget is not None:
                over = max(0, circuit.num_qubits - self.register_budget)
            return (
                over,
                plan.mid_circuit_ops,
                circuit.num_qubits,
                circuit.depth(),
                tuple((p.source, p.target) for p in plan.pairs),
            )
        if self.objective == "depth":
            tail: Tuple = (circuit.depth(), plan.mid_circuit_ops)
        elif self.objective == "est_error":
            tail = (plan.mid_circuit_ops, circuit_duration_dt(circuit))
        else:
            tail = (circuit.depth(), plan.mid_circuit_ops)
        return (
            circuit.num_qubits,
            *tail,
            tuple((p.source, p.target) for p in plan.pairs),
        )

    # -- the search --------------------------------------------------------------

    @staticmethod
    def _settle(analysis: WindowAnalysis, state: _BeamState, reach: Reach) -> None:
        """Give *state* its reach rows, valid merges and exact floor."""
        options, rows = analysis.chain_merges(state.wires, reach)
        state.reach = reach
        state.options = options
        state.floor = analysis.chain_floor(state.wires, rows)

    def search(self, analysis: WindowAnalysis) -> Tuple[List[ChainPlan], int]:
        """Run the beam over *analysis*'s chain states.

        Returns the top abstract candidates, ordered best-first by the
        abstract key (at most ``materialize_top`` plans, at least one:
        the empty plan when nothing can merge), and the root state's
        matching floor.

        Children are ranked lazily.  Each starts with its parent's floor,
        which is never above its own (a matching of the child's
        valid-merge relation maps into the parent's, and the merge that
        made the child extends it by one), and every abstract key is
        monotone in the floor, so the parent-floor key is a lower bound
        on the exact key.  Children are settled in lower-bound order
        until ``beam_width`` exact keys are known and the next lower
        bound is no better than the worst of them; the rest are dropped
        unscanned.  Keys end in the plan, which is unique per child, so
        the survivors are exactly those of a sort by exact key.
        """
        ops = tuple(w.num_ops for w in analysis.windows)
        terminal_measure = [w.terminal_measure for w in analysis.windows]
        root = _BeamState(
            wires=analysis.initial_state(),
            plan=(),
            inserted_measures=0,
            loads=ops,
            load=max(ops, default=0),
            floor=0,
        )
        self._settle(analysis, root, analysis.initial_reach())
        budget = self.register_budget
        if budget is None and self.dual_register:
            # dual-register without an explicit register size: stop at the
            # matching floor — merging past it only adds measure/reset cost
            budget = root.floor

        def budget_met(width: int) -> bool:
            return budget is not None and width <= budget

        candidates: Dict[bytes, _BeamState] = {}
        seen = {analysis.canonical(root.wires)}

        def offer(state: _BeamState) -> None:
            key = analysis.canonical(state.wires)
            if key not in candidates:
                candidates[key] = state

        beam = [root]
        width = self.beam_width
        with self.stats.timed("search"):
            while beam:
                # (lower-bound key, child, parent, u, v)
                pending: List[Tuple[Tuple, _BeamState, _BeamState, int, int]] = []
                for state in beam:
                    if budget_met(len(state.wires)) or not state.options:
                        offer(state)
                        continue
                    expanded = False
                    for u, v in state.options:
                        new_wires = WindowAnalysis.merge(state.wires, u, v)
                        key = analysis.canonical(new_wires)
                        if key in seen:
                            continue
                        seen.add(key)
                        source_tail = state.wires[u][-1]
                        # the merged wire's load: both chains plus a barrier
                        merged = state.loads[u] + state.loads[v] + 2
                        loads = list(state.loads)
                        loads[u] = merged
                        del loads[v]
                        child = _BeamState(
                            wires=new_wires,
                            plan=state.plan + (ReusePair(u, v),),
                            inserted_measures=state.inserted_measures
                            + (0 if terminal_measure[source_tail] else 1),
                            loads=tuple(loads),
                            load=max(state.load, merged),
                            floor=state.floor,
                        )
                        pending.append((self._abstract_key(child), child, state, u, v))
                        expanded = True
                    if not expanded:
                        # every successor was interned elsewhere: keep this
                        # state as a candidate so a viable plan survives
                        offer(state)
                if not pending:
                    break
                self.stats.count("states_expanded", len(pending))
                pending.sort(key=itemgetter(0))
                best: List[Tuple[Tuple, _BeamState]] = []
                for lower, child, parent, u, v in pending:
                    if len(best) == width and lower >= best[-1][0]:
                        break
                    self._settle(
                        analysis,
                        child,
                        analysis.merge_reach(parent.reach, parent.wires, u, v),
                    )
                    exact = self._abstract_key(child)
                    if len(best) < width or exact < best[-1][0]:
                        # keys end in the unique plan: no tie reaches the state
                        insort(best, (exact, child))
                        del best[width:]
                dropped = len(pending) - len(best)
                if dropped:
                    self.stats.count("states_dropped", dropped)
                beam = [child for _, child in best]
        ranked = sorted(candidates.values(), key=self._abstract_key)
        top = ranked[: self.materialize_top] if ranked else [root]
        plans = [
            ChainPlan(
                pairs=state.plan,
                chains=state.wires,
                width=len(state.wires),
                inserted_measures=state.inserted_measures,
                inserted_resets=len(state.plan),
            )
            for state in top
        ]
        return plans, root.floor

    # -- materialisation ---------------------------------------------------------

    def _greedy_plan(
        self, circuit: QuantumCircuit, analysis: WindowAnalysis
    ) -> Optional[ChainPlan]:
        """The greedy QS sweep's narrowest point, as a chain plan."""
        from repro.core.qs_caqr import QSCaQR

        sweep = QSCaQR(
            objective="depth", reset_style=self.reset_style, parallel=False
        ).sweep(circuit)
        point = sweep[-1]
        if not point.pairs:
            return None
        wires = analysis.initial_state()
        measures = 0
        for pair in point.pairs:
            source_tail = wires[pair.source][-1]
            if not analysis.windows[source_tail].terminal_measure:
                measures += 1
            wires = WindowAnalysis.merge(wires, pair.source, pair.target)
        return ChainPlan(
            pairs=tuple(point.pairs),
            chains=wires,
            width=len(wires),
            inserted_measures=measures,
            inserted_resets=len(point.pairs),
        )

    def run(self, circuit: QuantumCircuit) -> ChainReuseResult:
        """Search, materialise, and return the winning chain plan."""
        with self.stats.timed("analyze"):
            analysis = WindowAnalysis(circuit)
        self.stats.count("windows", circuit.num_qubits)
        self.stats.count(
            "mid_circuit_windows", len(analysis.mid_circuit_windows())
        )
        plans, floor = self.search(analysis)
        best_width = min(plan.width for plan in plans)
        guard: Optional[ChainPlan] = None
        if (
            self.greedy_guard
            and not self.dual_register
            and self.register_budget is None
            and best_width > floor
        ):
            guard = self._greedy_plan(circuit, analysis)
            if guard is not None and guard.width < best_width:
                plans = [guard] + list(plans)
                self.stats.count("greedy_fallback")
            else:
                guard = None
        best: Optional[Tuple[Tuple, ChainPlan, QuantumCircuit]] = None
        # plans share prefixes (beam siblings differ in their last merges):
        # each prefix is applied once, from its longest applied prefix
        prefixes: Dict[Tuple[ReusePair, ...], QuantumCircuit] = {(): circuit}
        with self.stats.timed("materialize"):
            for plan in plans:
                done = len(plan.pairs)
                while plan.pairs[:done] not in prefixes:
                    done -= 1
                materialised = prefixes[plan.pairs[:done]]
                for step in range(done, len(plan.pairs)):
                    materialised = apply_reuse_pair(
                        materialised, plan.pairs[step], reset_style=self.reset_style
                    ).circuit
                    prefixes[plan.pairs[: step + 1]] = materialised
                self.stats.count("plans_materialized")
                key = self._final_key(plan, materialised)
                if best is None or key < best[0]:
                    best = (key, plan, materialised)
        assert best is not None  # search always returns at least one plan
        _, plan, materialised = best
        from_greedy = guard is not None and plan is guard
        self.stats.count("merges", len(plan.pairs))
        self.stats.count("inserted_measures", plan.inserted_measures)
        self.stats.count("inserted_resets", plan.inserted_resets)
        feasible = (
            self.register_budget is None
            or materialised.num_qubits <= self.register_budget
        )
        if not feasible:
            self.stats.count("budget_infeasible")
        return ChainReuseResult(
            circuit=materialised,
            qubits=materialised.num_qubits,
            depth=materialised.depth(),
            pairs=list(plan.pairs),
            plan=plan,
            feasible=feasible,
            from_greedy=from_greedy,
            floor=floor,
        )

    def minimum_qubits(self, circuit: QuantumCircuit) -> int:
        """The narrowest width the chain search reaches for *circuit*."""
        return self.run(circuit).qubits

    def reduce_to(self, circuit: QuantumCircuit, qubit_limit: int) -> ChainReuseResult:
        """Compile to at most *qubit_limit* wires, if possible.

        The budgeted search stops merging the moment a state fits, so it
        inserts the fewest dynamic operations that reach the budget; the
        result's ``feasible`` flag answers the paper's yes/no question.
        """
        if qubit_limit < 1:
            raise ReuseError("qubit limit must be positive")
        budgeted = ChainReuse(
            objective=self.objective,
            reset_style=self.reset_style,
            beam_width=self.beam_width,
            register_budget=qubit_limit,
            dual_register=self.dual_register,
            materialize_top=self.materialize_top,
            greedy_guard=self.greedy_guard,
            stats=self.stats,
        )
        return budgeted.run(circuit)

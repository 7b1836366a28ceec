"""Reference oracles the differential harnesses and benchmarks pin against.

Production ships one QS-CaQR greedy loop, one SR-CaQR scheduler and one
reuse-potential lookahead kernel.  Their from-scratch predecessors live
here, outside ``src/``, as the referees those fast paths must match bit
for bit:

* :class:`ReferenceQSCaQR` — the paper-literal QS-CaQR loop: every
  greedy step re-analyses the materialised circuit from scratch
  (:class:`~repro.core.conditions.ReuseAnalysis`, per-candidate
  critical paths, and a networkx bipartite-matching lookahead on each
  trial circuit).  It selects the same pair sequence as
  :class:`~repro.core.qs_caqr.QSCaQR`'s session engine.
* :class:`ReferenceSRCaQR` — the pre-optimisation SR-CaQR scheduler:
  slack, frontier and wire reclaim are re-derived from the full DAG
  every round, with scalar placement and SWAP scoring.  It emits the
  same circuits as :class:`~repro.core.sr_caqr.SRCaQR`.
* :func:`nx_potential` and :func:`nx_lookahead_kernel` — the networkx
  reuse-potential kernel and a context manager that installs it in
  :mod:`repro.core.session` in place of the bitset kernel.
* :func:`reference_reach` and :func:`reference_chain_merges` — the
  from-scratch barrier closure and valid-merge scan over a chain state.
  They are the referees of :class:`~repro.core.windows.WindowAnalysis`'s
  incremental chain-state kernel (per-merge bitset reach rows), which
  the chain beam and the exact branch-and-bound share.
  :func:`reference_canonical` is the frozenset state key the compact
  bytes key of :meth:`~repro.core.windows.WindowAnalysis.canonical`
  must agree with.
* :func:`reference_chain_search` — the eager chain beam: every child
  pays for its valid-merge scan and Kuhn floor, and each level sorts
  all children by the exact key.  It is the referee of
  :meth:`~repro.core.chains.ChainReuse.search`'s lower-bound ranking
  (plans, root floor, ``states_expanded``/``states_dropped``).
* :func:`reference_sabre_route` and :func:`reference_sabre_layout` — the
  SABRE router that rebuilds its DAG and emits a circuit on every pass,
  with numpy scoring over the whole candidate set.  They are the
  referees of :class:`~repro.transpiler.sabre.RoutingProblem`'s one
  routing loop (routed QASM, SWAP count, final layout, layout search).
  :data:`SABRE_STALL_LIMIT` is the referee's own stall limit.
* :func:`reference_schedule_commuting` and
  :func:`reference_extension_costs` — the commuting-gate matching
  scheduler that rebuilds its dependence graph and a networkx frontier
  graph for every pair set, and the candidate scorer that schedules
  every candidate to its last layer.  They are the referees of
  :class:`~repro.core.qs_commuting.CommutingProblem` (schedules,
  errors) and of the bounded scorer (its first-minimum candidate).
* :class:`DensityMatrix` and :func:`exact_distribution` — exact
  density-matrix simulation with classical-outcome branching under
  gate/readout noise.  They are the referee of the sampling engines
  behind :func:`repro.sim.run_counts` (seeded counts converge to the
  exact distribution).

The exact engine (:class:`~repro.core.exact.ExactReuse`) is the referee
for *width* only; it does not replace any of these.
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.circuit import gates
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.core import session as _session
from repro.core.chains import ChainPlan, ChainReuse
from repro.core.conditions import ReuseAnalysis, ReusePair
from repro.core.evaluate import evaluate_pair_depth, evaluate_pair_duration
from repro.core.qs_commuting import (
    REUSE_GATE_WEIGHT,
    CommutingSchedule,
    _greedy_matching,
    resolve_matching,
)
from repro.core.qs_caqr import QSCaQR, QSCaQRResult
from repro.core.sr_caqr import _DIRTY, _FRESH, SRCaQR, SRCaQRResult
from repro.core.transform import apply_reuse_pair
from repro.core.windows import Chain, Reach, State, WindowAnalysis
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import ReuseError, SimulationError, TranspilerError
from repro.hardware.coupling import CouplingMap
from repro.sim.noise import NoiseModel
from repro.stats import Stats
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.layout import Layout, trivial_layout
from repro.transpiler.sabre import RoutingResult
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = [
    "DensityMatrix",
    "ReferenceQSCaQR",
    "ReferenceSRCaQR",
    "exact_distribution",
    "nx_lookahead_kernel",
    "nx_potential",
    "reference_canonical",
    "reference_chain_merges",
    "reference_chain_search",
    "reference_extension_costs",
    "reference_reach",
    "reference_sabre_layout",
    "reference_sabre_route",
    "reference_schedule_commuting",
    "reuse_potential",
]


# -- QS-CaQR -------------------------------------------------------------------


def reuse_potential(circuit: QuantumCircuit) -> int:
    """Upper bound on further merges: max bipartite matching over the
    valid-pair relation (each qubit once as source, once as target).

    A pair that looks cheap by critical path can still destroy future
    reuse (e.g. pairing BV's first data qubit with its *last* one
    breaks the chain that reaches the 2-qubit floor); this bound is
    the lookahead that prevents such dead ends.
    """
    pairs = ReuseAnalysis(circuit).valid_pairs()
    if not pairs:
        return 0
    graph = nx.Graph()
    sources = {("s", p.source) for p in pairs}
    for pair in pairs:
        graph.add_edge(("s", pair.source), ("t", pair.target))
    matching = nx.algorithms.bipartite.hopcroft_karp_matching(graph, sources)
    return len(matching) // 2


class ReferenceQSCaQR(QSCaQR):
    """QS-CaQR that re-analyses the materialised circuit at every step.

    Same constructor and results as :class:`QSCaQR`; only the engine
    differs.  It never touches a :class:`~repro.core.session.ReuseSession`,
    so its ``stats`` stay empty.
    """

    def best_pair(self, circuit: QuantumCircuit) -> Optional[ReusePair]:
        """The cheapest valid pair that preserves maximal reuse potential.

        Candidates are ranked by the critical path of the DAG with the
        dummy node inserted (paper Fig. 9); among the ``lookahead_width``
        cheapest, the pair whose application leaves the largest remaining
        reuse-matching bound wins (cost breaks ties).
        """
        analysis = ReuseAnalysis(circuit)
        candidates = analysis.valid_pairs()
        if not candidates:
            return None

        def _cost(pair: ReusePair):
            if self.objective == "depth":
                value = evaluate_pair_depth(analysis.dag, pair)
            else:
                value = evaluate_pair_duration(analysis.dag, pair, self.reset_style)
            return (value, pair.source, pair.target)

        ranked = sorted(candidates, key=_cost)
        if self.lookahead_width is not None:
            ranked = ranked[: max(1, self.lookahead_width)]
        best_pair: Optional[ReusePair] = None
        best_key = None
        for pair in ranked:
            transformed = apply_reuse_pair(
                circuit, pair, reset_style=self.reset_style, validate=False
            ).circuit
            key = (-reuse_potential(transformed), _cost(pair))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = pair
        return best_pair

    def sweep(
        self, circuit: QuantumCircuit, min_qubits: int = 1
    ) -> List[QSCaQRResult]:
        points = [self._point(circuit, [])]
        current = circuit
        pairs: List[ReusePair] = []
        while current.num_qubits > min_qubits:
            pair = self.best_pair(current)
            if pair is None:
                break
            current = apply_reuse_pair(
                current, pair, reset_style=self.reset_style, validate=False
            ).circuit
            pairs.append(pair)
            points.append(self._point(current, pairs))
        return points

    def reduce_to(self, circuit: QuantumCircuit, qubit_limit: int) -> QSCaQRResult:
        if qubit_limit < 1:
            raise ReuseError("qubit limit must be positive")
        current = circuit
        pairs: List[ReusePair] = []
        while current.num_qubits > qubit_limit:
            pair = self.best_pair(current)
            if pair is None:
                return self._point(current, pairs, feasible=False)
            current = apply_reuse_pair(
                current, pair, reset_style=self.reset_style, validate=False
            ).circuit
            pairs.append(pair)
        return self._point(current, pairs)


# -- the reuse-potential lookahead kernel --------------------------------------


def nx_potential(state: dict, pair: ReusePair) -> int:
    """Reuse-potential of the circuit after *pair*, from bitset state only.

    Mirrors ``reuse_potential(apply_reuse_pair(...).circuit)``: the
    candidate's merge is simulated by (a) giving every wire that reaches
    the source wire the target wire's closure plus the new measure/reset
    bits, and (b) merging the two wires' masks, then the valid-pair
    relation is rebuilt and its maximum bipartite matching sized with
    networkx.  Bit positions ``next_id``/``next_id + 1`` stand in for
    the not-yet-inserted measure and reset nodes.  *state* is a
    :class:`~repro.core.session.ReuseSession` step state.
    """
    a, b = pair.source, pair.target
    reach_op = state["reach_op"]
    reach_all = state["reach_all"]
    selfop = state["selfop"]
    gids = state["gids"]
    interacts = state["interacts"]
    nm = state["next_id"]
    # the reset node is always new; the measure node is only new when the
    # source wire has no terminal measurement to take over
    new_bits = 1 << (nm + 1)
    if not state["tmeasure"][a]:
        new_bits |= 1 << nm
    tr = reach_all[b] | new_bits
    smask = state["selfall"][a]

    labels = [i for i in range(state["n"]) if i != b]
    reach2: Dict[int, int] = {}
    self2: Dict[int, int] = {}
    used2: Dict[int, bool] = {}
    merged_interacts = interacts[a] | interacts[b]
    for i in labels:
        if i == a:
            reach2[i] = reach_op[a] | reach_op[b] | tr
            self2[i] = selfop[a] | selfop[b] | new_bits
            used2[i] = True
        else:
            reach = reach_op[i]
            if reach & smask:
                reach |= tr
            reach2[i] = reach
            self2[i] = selfop[i]
            used2[i] = state["used"][i]

    def _interacting(x: int, y: int) -> bool:
        if x == a:
            return gids[y] in merged_interacts
        if y == a:
            return gids[x] in merged_interacts
        return gids[y] in interacts[x]

    graph = nx.Graph()
    sources = set()
    for x in labels:
        if not used2[x]:
            continue
        for y in labels:
            if x == y or not used2[y]:
                continue
            if _interacting(x, y):
                continue  # Condition 1
            if reach2[y] & self2[x]:
                continue  # Condition 2: a gate on y precedes a gate on x
            graph.add_edge(("s", x), ("t", y))
            sources.add(("s", x))
    if not graph.number_of_edges():
        return 0
    matching = nx.algorithms.bipartite.hopcroft_karp_matching(graph, sources)
    return len(matching) // 2


@contextlib.contextmanager
def nx_lookahead_kernel() -> Iterator[None]:
    """Run every serial :meth:`ReuseSession.reuse_potentials` call on
    :func:`nx_potential` instead of the bitset kernel.

    The session's serial path computes ``_potential_for_candidate(
    _derive_np_state(state), pair)``; the patch hands the raw step state
    through unchanged and scores it with networkx.  Lookahead process
    pools forked inside the context inherit the patch.
    """
    saved = (_session._derive_np_state, _session._potential_for_candidate)
    _session._derive_np_state = lambda state: state
    _session._potential_for_candidate = nx_potential
    try:
        yield
    finally:
        _session._derive_np_state, _session._potential_for_candidate = saved


# -- SR-CaQR -------------------------------------------------------------------


class ReferenceSRCaQR(SRCaQR):
    """SR-CaQR on the from-scratch scheduler.

    Same constructor, trial grid and results as :class:`SRCaQR`; only
    ``_run_once`` differs.
    """

    def _run_once(
        self, circuit: QuantumCircuit, hint_seed: Optional[int]
    ) -> SRCaQRResult:
        """The pre-optimisation router: slack, frontier, and reclaim are
        re-derived from the full DAG every round with scalar scoring."""
        flat = decompose_to_two_qubit(circuit)
        dag = DAGCircuit.from_circuit(flat)
        coupling = self.backend.coupling
        stats = self.stats
        stats.count("distance_cache_hits")

        hints = self._hints(flat, hint_seed)

        in_degree: Dict[int, int] = {n: dag.in_degree(n) for n in dag.nodes}
        unscheduled: Set[int] = set(dag.nodes)
        remaining_gates: Dict[int, int] = {q: 0 for q in range(flat.num_qubits)}
        last_op: Dict[int, Optional[Instruction]] = {
            q: None for q in range(flat.num_qubits)
        }
        for node_id in dag.op_nodes(include_directives=True):
            instruction = dag.nodes[node_id].instruction
            for q in instruction.qubits:
                remaining_gates[q] += 1

        layout = Layout(flat.num_qubits, self.backend.num_qubits)
        out = QuantumCircuit(self.backend.num_qubits, flat.num_clbits, flat.name)
        wire_state: Dict[int, Tuple[str, Optional[int]]] = {
            p: _FRESH for p in range(self.backend.num_qubits)
        }
        ever_used: Set[int] = set()
        swap_count = 0
        reuse_count = 0
        force_map = False
        # bounded patience per logical qubit when waiting for a wire to free
        wait_budget: Dict[int, int] = {q: 16 for q in range(flat.num_qubits)}

        # -- inner helpers ---------------------------------------------------------

        def _slack() -> Dict[int, int]:
            """Unit-weight slack over the unscheduled sub-DAG."""
            stats.count("slack_recomputes")
            order = [n for n in dag.topological_order() if n in unscheduled]
            asap: Dict[int, int] = {}
            for node_id in order:
                start = max(
                    (
                        asap[p]
                        for p in dag.predecessors(node_id)
                        if p in unscheduled
                    ),
                    default=0,
                )
                asap[node_id] = start + 1
            horizon = max(asap.values(), default=0)
            alap: Dict[int, int] = {}
            for node_id in reversed(order):
                successors = [s for s in dag.successors(node_id) if s in unscheduled]
                if not successors:
                    alap[node_id] = horizon
                else:
                    alap[node_id] = min(alap[s] - 1 for s in successors)
            return {n: alap[n] - asap[n] for n in order}

        def _frontier() -> List[int]:
            return [n for n in dag._order if n in unscheduled and in_degree[n] == 0]

        def _mark_scheduled(node_id: int) -> None:
            unscheduled.discard(node_id)
            instruction = dag.nodes[node_id].instruction
            for successor in dag.successors(node_id):
                in_degree[successor] -= 1
            if instruction is None:
                return
            for q in instruction.qubits:
                remaining_gates[q] -= 1
                last_op[q] = instruction
            _reclaim()

        def _reclaim() -> None:
            """Release finished logical qubits back to the physical pool."""
            for q in range(flat.num_qubits):
                if remaining_gates[q] == 0 and layout.is_mapped(q):
                    final = last_op[q]
                    physical = layout.release(q)
                    if final is not None and final.name == "measure":
                        wire_state[physical] = ("measured", final.clbits[0])
                    else:
                        wire_state[physical] = _DIRTY

        def _emit(node_id: int) -> None:
            instruction = dag.nodes[node_id].instruction
            mapped = instruction.remapped(lambda q: layout.physical(q))
            out.append(mapped)
            ever_used.update(mapped.qubits)
            _mark_scheduled(node_id)

        def _prepare_wire(physical: int) -> None:
            """Reset a reused wire before its new logical qubit starts."""
            nonlocal reuse_count
            state, clbit = wire_state[physical]
            if state == "fresh":
                return
            reuse_count += 1
            if state == "dirty":
                clbit = out.num_clbits
                out.add_clbits(1)
                out.measure(physical, clbit)
            if self.reset_style == "cif":
                out.x(physical).c_if(clbit, 1)
            else:
                out.reset(physical)
            wire_state[physical] = _FRESH

        def _future_partners(logical: int) -> List[int]:
            """Physical positions of already-mapped future gate partners."""
            partners: List[int] = []
            for node_id in dag.nodes_on_qubit(logical):
                if node_id not in unscheduled:
                    continue
                instruction = dag.nodes[node_id].instruction
                for other in instruction.qubits:
                    if other != logical and layout.is_mapped(other):
                        partners.append(layout.physical(other))
            return partners

        def _free_degree(physical: int) -> int:
            return sum(
                1
                for neighbor in coupling.neighbors(physical)
                if layout.logical(neighbor) is None
            )

        def _map_first(logical: int) -> bool:
            free = layout.free_physical()
            if not free:
                return False  # pool exhausted; retry after wires are freed
            partners = _future_partners(logical)
            distance = coupling.distance_matrix()
            # wait for an imminently-freed wire next to a mapped partner
            # rather than settling for a distant placement (paper Fig. 5)
            if partners and not force_map and wait_budget[logical] > 0:
                best_free = min(
                    distance[p][f] for p in partners for f in free
                )
                if best_free > 1:
                    for partner_physical in partners:
                        for neighbor in coupling.neighbors(partner_physical):
                            occupant = layout.logical(neighbor)
                            if occupant is not None and _finishing_soon(occupant):
                                wait_budget[logical] -= 1
                                return False

            def score(physical: int):
                partner_cost = sum(distance[physical][p] for p in partners)
                readout = (
                    self.backend.calibration.get_readout_error(physical)
                    if self.noise_aware
                    else 0.0
                )
                off_hint = 0 if hints.get(logical) == physical else 1
                return (
                    partner_cost,
                    off_hint,
                    -_free_degree(physical),
                    readout,
                    physical,
                )

            physical = min(free, key=score)
            _prepare_wire(physical)
            layout.assign(logical, physical)
            return True

        def _finishing_soon(occupant: int) -> bool:
            """Occupant is in its 1Q/measure tail: the wire frees shortly."""
            if remaining_gates[occupant] > 3:
                return False
            return all(
                len(dag.nodes[n].instruction.qubits) == 1
                for n in dag.nodes_on_qubit(occupant)
                if n in unscheduled
            )

        def _map_second(logical: int, partner_physical: int) -> bool:
            free = layout.free_physical()
            if not free:
                return False  # pool exhausted; retry after wires are freed
            distance = coupling.distance_matrix()
            # Prefer *waiting* over a distant placement when a neighbour of
            # the partner is about to be released — the released wire is a
            # SWAP-free reuse spot (the crux of SR-CaQR, paper Fig. 5).
            if not force_map and wait_budget[logical] > 0:
                best_free = min(distance[partner_physical][p] for p in free)
                if best_free > 1:
                    for neighbor in coupling.neighbors(partner_physical):
                        occupant = layout.logical(neighbor)
                        if occupant is not None and _finishing_soon(occupant):
                            wait_budget[logical] -= 1
                            return False

            def score(physical: int):
                hops = distance[partner_physical][physical]
                if self.noise_aware:
                    readout = self.backend.calibration.get_readout_error(physical)
                    link = (
                        self.backend.calibration.get_cx_error(physical, partner_physical)
                        if coupling.are_adjacent(physical, partner_physical)
                        else 1.0
                    )
                else:
                    readout = link = 0.0
                off_hint = 0 if hints.get(logical) == physical else 1
                return (hops, off_hint, readout + link, physical)

            physical = min(free, key=score)
            _prepare_wire(physical)
            layout.assign(logical, physical)
            return True

        def _map_gate_qubits(instruction: Instruction) -> bool:
            unmapped = [q for q in instruction.qubits if not layout.is_mapped(q)]
            if len(unmapped) == 2:
                # the qubit with more gates on it is placed first (Step 2)
                first, second = sorted(
                    unmapped, key=lambda q: -remaining_gates[q]
                )
                if not _map_first(first):
                    return False
                return _map_second(second, layout.physical(first))
            if len(unmapped) == 1 and len(instruction.qubits) == 2:
                other = next(
                    q for q in instruction.qubits if q != unmapped[0]
                )
                return _map_second(unmapped[0], layout.physical(other))
            if unmapped:
                return _map_first(unmapped[0])
            return True

        def _lookahead_gates(blocked: List[int]) -> List[int]:
            """Nearest fully-mapped 2Q descendants of the blocked gates."""
            result: List[int] = []
            queue = list(blocked)
            seen = set(queue)
            while queue and len(result) < 20:
                node_id = queue.pop(0)
                for successor in sorted(dag.successors(node_id)):
                    if successor in seen:
                        continue
                    seen.add(successor)
                    instruction = dag.nodes[successor].instruction
                    if (
                        instruction is not None
                        and len(instruction.qubits) == 2
                        and all(layout.is_mapped(q) for q in instruction.qubits)
                    ):
                        result.append(successor)
                    queue.append(successor)
            return result

        last_swap: List[Optional[Tuple[int, int]]] = [None]

        def _insert_swap_toward(blocked: List[int]) -> None:
            """SABRE-style scoring: pick the swap minimising the summed
            error-weighted distance of every blocked gate, plus a damped
            look-ahead term over upcoming mapped gates."""
            nonlocal swap_count
            ahead = _lookahead_gates(blocked)
            candidates: Set[Tuple[int, int]] = set()
            for node_id in blocked:
                for q in dag.nodes[node_id].instruction.qubits:
                    physical = layout.physical(q)
                    for neighbor in coupling.neighbors(physical):
                        candidates.add(tuple(sorted((physical, neighbor))))
            if len(candidates) > 1:
                candidates.discard(last_swap[0])  # don't undo the last swap

            def _pair_cost(node_id: int, swap: Tuple[int, int]) -> float:
                a, b = swap
                pa, pb = (layout.physical(q) for q in dag.nodes[node_id].instruction.qubits)
                pa = b if pa == a else a if pa == b else pa
                pb = b if pb == a else a if pb == b else pb
                return self._error_distance[pa][pb]

            def _score(swap: Tuple[int, int]) -> float:
                front = sum(_pair_cost(node_id, swap) for node_id in blocked)
                future = sum(_pair_cost(node_id, swap) for node_id in ahead)
                return front / len(blocked) + (
                    0.5 * future / len(ahead) if ahead else 0.0
                )

            if not candidates:
                raise ReuseError("no SWAP candidates for blocked gates")
            stats.count("swap_candidates_scored", len(candidates))
            a, b = min(candidates, key=lambda swap: (_score(swap), swap))
            out.swap(a, b)
            ever_used.update((a, b))
            layout.swap_physical(a, b)
            wire_state[a], wire_state[b] = wire_state[b], wire_state[a]
            last_swap[0] = (a, b)
            swap_count += 1

        # -- main loop -----------------------------------------------------------------

        while unscheduled:
            slack = _slack()
            scheduled_any = False
            mapping_starved = False
            blocked: List[int] = []
            # critical gates first so they grab free wires before delayable
            # ones (and wires reclaimed mid-round serve later gates)
            frontier = sorted(_frontier(), key=lambda n: slack.get(n, 0))
            for node_id in frontier:
                instruction = dag.nodes[node_id].instruction
                if instruction is None or instruction.is_directive():
                    _mark_scheduled(node_id)
                    scheduled_any = True
                    continue
                fully_mapped = all(layout.is_mapped(q) for q in instruction.qubits)
                if not fully_mapped:
                    if slack.get(node_id, 0) > 0 and not force_map:
                        continue  # delay off-critical gates (Step 2)
                    if not _map_gate_qubits(instruction):
                        mapping_starved = True
                        continue  # no free wire yet; retry next round
                if len(instruction.qubits) == 2:
                    pa, pb = (layout.physical(q) for q in instruction.qubits)
                    if not coupling.are_adjacent(pa, pb):
                        blocked.append(node_id)
                        continue
                _emit(node_id)
                scheduled_any = True
            if scheduled_any:
                force_map = False
                continue
            if blocked:
                # bring the blocked frontier one SWAP closer (SABRE scoring)
                _insert_swap_toward(blocked)
                force_map = False
                continue
            if force_map:
                if mapping_starved:
                    raise ReuseError(
                        "device too small: all physical qubits are live and "
                        "no wire can be freed (circuit needs more concurrent "
                        "qubits than the device has)"
                    )
                raise ReuseError("SR-CaQR made no progress (internal error)")
            force_map = True

        stats.count("swaps_inserted", swap_count)
        return SRCaQRResult(
            circuit=out,
            swap_count=swap_count,
            reuse_count=reuse_count,
            qubits_used=len(ever_used),
            depth=out.depth(),
            duration_dt=circuit_duration_dt(out, self.backend.calibration),
        )


# -- chain-state kernel ----------------------------------------------------------


def reference_reach(analysis: WindowAnalysis, wires: State) -> Dict[int, Set[int]]:
    """``reach[y]`` = original qubits some op on *y*'s wire precedes.

    Each chain adjacency ``(a, b)`` is a measure/reset barrier: all ops
    of the wire up to ``a`` precede it, all ops from ``b`` on follow it.
    Barrier *i* feeds barrier *j* when ``i``'s released qubit is (or
    depends into) ``j``'s retiring qubit; the closure of that tiny
    digraph composes dependencies across chains.  Rebuilt from scratch
    for every state.
    """
    merges: List[Tuple[int, int]] = []
    for chain in wires:
        for i in range(len(chain) - 1):
            merges.append((chain[i], chain[i + 1]))
    k = len(merges)
    closure: List[int] = [0] * k
    if k:
        adjacency: List[int] = [0] * k
        for i, (_, released) in enumerate(merges):
            for j, (retiring, _) in enumerate(merges):
                if i != j and (
                    released == retiring or analysis._d0(released, retiring)
                ):
                    adjacency[i] |= 1 << j
        for i in range(k):
            seen = 1 << i
            stack = [i]
            while stack:
                frontier = adjacency[stack.pop()] & ~seen
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    seen |= bit
                    stack.append(bit.bit_length() - 1)
            closure[i] = seen
        exits: List[Set[int]] = []
        for _, released in merges:
            out = {q for q in analysis._used if analysis._d0(released, q)}
            out.add(released)
            exits.append(out)
    reach: Dict[int, Set[int]] = {}
    for q in analysis._used:
        row = {x for x in analysis._used if analysis._d0(q, x)}
        for i, (retiring, _) in enumerate(merges):
            if q == retiring or analysis._d0(q, retiring):
                mask = closure[i]
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    row |= exits[bit.bit_length() - 1]
        reach[q] = row
    return reach


def reference_chain_merges(
    analysis: WindowAnalysis, wires: State
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """All valid merges ``(source wire, target wire)`` in *wires*, plus
    per-source target bitmasks, with set-based member-wise scans over
    :func:`reference_reach`."""
    reach = reference_reach(analysis, wires)
    active = [
        index
        for index, chain in enumerate(wires)
        if all(q in analysis._used for q in chain)
    ]
    options: List[Tuple[int, int]] = []
    rows = [0] * len(wires)
    for u in active:
        source_chain = wires[u]
        for v in active:
            if u == v:
                continue
            target_chain = wires[v]
            if any(
                b in analysis._interacts[a]
                for a in source_chain
                for b in target_chain
            ):
                continue
            if any(x in reach[y] for y in target_chain for x in source_chain):
                continue
            options.append((u, v))
            rows[u] |= 1 << v
    return options, rows


def reference_canonical(
    analysis: WindowAnalysis, wires: State
) -> FrozenSet[Tuple[Chain, int]]:
    """The state key as a frozenset of ``(class chain, count)`` items."""
    counts = Counter(tuple(analysis._class_of[q] for q in chain) for chain in wires)
    return frozenset(counts.items())


@dataclass
class _ReferenceBeamState:
    """One node of the eager beam: every field is exact on creation."""

    wires: State
    reach: Reach
    plan: Tuple[ReusePair, ...]
    inserted_measures: int
    options: List[Tuple[int, int]]
    floor: int
    load: int


def _reference_state_load(wires: State, ops: Sequence[int]) -> int:
    """Longest serialised wire: member ops plus 2 per barrier."""
    return max(
        (sum(ops[q] for q in chain) + 2 * (len(chain) - 1) for chain in wires),
        default=0,
    )


def reference_chain_search(
    engine: ChainReuse, analysis: WindowAnalysis
) -> Tuple[List[ChainPlan], int]:
    """The eager chain beam: every child pays for its valid-merge scan,
    reach update and Kuhn floor, and each level sorts all children by
    the exact abstract key.  Same inputs, counters (``states_expanded``,
    ``states_dropped`` on ``engine.stats``) and return value as
    :meth:`~repro.core.chains.ChainReuse.search`."""
    ops = [w.num_ops for w in analysis.windows]
    terminal_measure = [w.terminal_measure for w in analysis.windows]

    def make_state(
        wires: State, reach: Reach, plan: Tuple[ReusePair, ...], measures: int
    ) -> _ReferenceBeamState:
        options, rows = analysis.chain_merges(wires, reach)
        return _ReferenceBeamState(
            wires=wires,
            reach=reach,
            plan=plan,
            inserted_measures=measures,
            options=options,
            floor=analysis.chain_floor(wires, rows),
            load=_reference_state_load(wires, ops),
        )

    root = make_state(analysis.initial_state(), analysis.initial_reach(), (), 0)
    budget = engine.register_budget
    if budget is None and engine.dual_register:
        budget = root.floor

    def budget_met(width: int) -> bool:
        return budget is not None and width <= budget

    candidates: Dict[bytes, _ReferenceBeamState] = {}
    seen = {analysis.canonical(root.wires)}

    def offer(state: _ReferenceBeamState) -> None:
        key = analysis.canonical(state.wires)
        if key not in candidates:
            candidates[key] = state

    beam = [root]
    while beam:
        children: List[_ReferenceBeamState] = []
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
                measures = state.inserted_measures + (
                    0 if terminal_measure[source_tail] else 1
                )
                child = make_state(
                    new_wires,
                    analysis.merge_reach(state.reach, state.wires, u, v),
                    state.plan + (ReusePair(u, v),),
                    measures,
                )
                children.append(child)
                expanded = True
                engine.stats.count("states_expanded")
            if not expanded:
                offer(state)
        if not children:
            break
        children.sort(key=engine._abstract_key)
        dropped = max(0, len(children) - engine.beam_width)
        if dropped:
            engine.stats.count("states_dropped", dropped)
        beam = children[: engine.beam_width]
    ranked = sorted(candidates.values(), key=engine._abstract_key)
    top = ranked[: engine.materialize_top] if ranked else [root]
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


# -- SABRE routing ---------------------------------------------------------------

SABRE_STALL_LIMIT = 100
_SABRE_EXTENDED_SET_SIZE = 20
_SABRE_EXTENDED_SET_WEIGHT = 0.5
_SABRE_DECAY_INCREMENT = 0.001
_SABRE_DECAY_RESET_INTERVAL = 5


def _sabre_requires_routing(instruction: Instruction) -> bool:
    return instruction.is_two_qubit() or (
        len(instruction.qubits) == 2 and instruction.name == "swap"
    )


def reference_sabre_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
    seed: int = 11,
    stats: Optional[Stats] = None,
) -> RoutingResult:
    """The from-scratch SABRE router: rebuilds the DAG, re-derives every
    routing flag and emits the circuit on every call, and scores swap
    candidates with numpy over the whole gate set."""
    for instruction in circuit.data:
        if len(instruction.qubits) > 2 and not instruction.is_directive():
            raise TranspilerError(
                f"sabre_route needs <=2-qubit gates, got {instruction.name}"
            )
    if circuit.num_qubits > coupling.num_qubits:
        raise TranspilerError(
            f"{circuit.num_qubits} logical qubits exceed device size "
            f"{coupling.num_qubits}"
        )
    rng = random.Random(seed)
    layout = (initial_layout or trivial_layout(circuit.num_qubits, coupling.num_qubits)).copy()
    initial = layout.copy()
    dag = DAGCircuit.from_circuit(circuit)
    distance = coupling.distance_matrix()

    in_degree = {node_id: dag.in_degree(node_id) for node_id in dag.nodes}
    front: List[int] = [node_id for node_id, degree in in_degree.items() if degree == 0]
    unresolved = len(in_degree)
    out = QuantumCircuit(coupling.num_qubits, circuit.num_clbits, circuit.name)
    decay = np.ones(coupling.num_qubits, dtype=np.float64)
    swap_count = 0
    stall = 0
    iterations = 0
    candidates_scored = 0

    def _physical_pair(node_id: int) -> Tuple[int, int]:
        a, b = dag.nodes[node_id].instruction.qubits
        return layout.physical(a), layout.physical(b)

    def _emit(node_id: int) -> None:
        instruction = dag.nodes[node_id].instruction
        out.append(instruction.remapped(lambda q: layout.physical(q)))

    def _resolve(node_id: int) -> None:
        nonlocal unresolved
        unresolved -= 1
        for successor in dag.successors(node_id):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                front.append(successor)

    def _extended_set(blocked: List[int]) -> List[int]:
        """Look-ahead window: nearest descendants of the blocked gates."""
        result: List[int] = []
        queue = list(blocked)
        seen: Set[int] = set(queue)
        while queue and len(result) < _SABRE_EXTENDED_SET_SIZE:
            node_id = queue.pop(0)
            for successor in sorted(dag.successors(node_id)):
                if successor in seen:
                    continue
                seen.add(successor)
                instruction = dag.nodes[successor].instruction
                if instruction is not None and _sabre_requires_routing(instruction):
                    result.append(successor)
                queue.append(successor)
        return result

    def _swapped_distance_sums(
        gates: List[int], a_col: np.ndarray, b_col: np.ndarray
    ) -> np.ndarray:
        """Front/look-ahead distance sum per candidate, after hypothetically
        applying each candidate swap.  Integer sums are exact, so the order
        of summation cannot perturb the serial scores."""
        pairs = np.array([_physical_pair(node_id) for node_id in gates], dtype=np.int64)
        pa = pairs[:, 0][None, :]
        pb = pairs[:, 1][None, :]
        pa = np.where(pa == a_col, b_col, np.where(pa == b_col, a_col, pa))
        pb = np.where(pb == a_col, b_col, np.where(pb == b_col, a_col, pb))
        return distance[pa, pb].sum(axis=1)

    while front or unresolved > 0:
        iterations += 1
        # 1. execute everything executable
        progress = True
        while progress:
            progress = False
            for node_id in list(front):
                instruction = dag.nodes[node_id].instruction
                if instruction is None or not _sabre_requires_routing(instruction):
                    front.remove(node_id)
                    if instruction is not None:
                        _emit(node_id)
                    _resolve(node_id)
                    progress = True
                    continue
                pa, pb = _physical_pair(node_id)
                if coupling.are_adjacent(pa, pb):
                    front.remove(node_id)
                    _emit(node_id)
                    _resolve(node_id)
                    progress = True
        if not front:
            if unresolved > 0:
                raise TranspilerError("routing stalled with pending gates")
            break

        blocked = [
            node_id
            for node_id in front
            if dag.nodes[node_id].instruction is not None
            and _sabre_requires_routing(dag.nodes[node_id].instruction)
        ]
        if not blocked:
            continue

        stall += 1
        if stall > SABRE_STALL_LIMIT:
            # escape: route the oldest blocked gate directly
            node_id = blocked[0]
            pa, pb = _physical_pair(node_id)
            path = coupling.shortest_path(pa, pb)
            for step in range(len(path) - 2):
                out.swap(path[step], path[step + 1])
                layout.swap_physical(path[step], path[step + 1])
                swap_count += 1
            stall = 0
            continue

        # 2. score candidate swaps (vectorised over the candidate set, in
        # set-iteration order so the RNG tie-break stream matches the
        # scalar reference implementation element for element)
        extended = _extended_set(blocked)
        candidates: Set[Tuple[int, int]] = set()
        for node_id in blocked:
            for physical in _physical_pair(node_id):
                for neighbor in coupling.neighbors(physical):
                    candidates.add(tuple(sorted((physical, neighbor))))

        cand_list = list(candidates)
        ties = [rng.random() for _ in cand_list]
        cand = np.array(cand_list, dtype=np.int64)
        a_col = cand[:, 0][:, None]
        b_col = cand[:, 1][:, None]
        scores = _swapped_distance_sums(blocked, a_col, b_col) / len(blocked)
        if extended:
            scores = scores + (
                _SABRE_EXTENDED_SET_WEIGHT
                * _swapped_distance_sums(extended, a_col, b_col)
                / len(extended)
            )
        scores = np.maximum(decay[cand[:, 0]], decay[cand[:, 1]]) * scores
        candidates_scored += len(cand_list)

        best_index = min(
            range(len(cand_list)), key=lambda i: (scores[i], ties[i])
        )
        best = cand_list[best_index]
        out.swap(*best)
        layout.swap_physical(*best)
        swap_count += 1
        decay[best[0]] += _SABRE_DECAY_INCREMENT
        decay[best[1]] += _SABRE_DECAY_INCREMENT
        if iterations % _SABRE_DECAY_RESET_INTERVAL == 0:
            decay.fill(1.0)

    if stats is not None:
        stats.count("route_calls")
        stats.count("swap_candidates_scored", candidates_scored)
        stats.count("swaps_inserted", swap_count)
    return RoutingResult(out, initial, layout, swap_count)


def reference_sabre_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    seed: int = 11,
    iterations: int = 3,
    trials: int = 4,
) -> Layout:
    """The serial bidirectional layout search over
    :func:`reference_sabre_route`, one fresh route per pass."""
    rng = random.Random(seed)
    reverse = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for instruction in reversed(circuit.data):
        reverse.append(instruction.copy())
    trial_specs = []
    for _ in range(trials):
        physical_order = list(range(coupling.num_qubits))
        rng.shuffle(physical_order)
        seeds = [rng.randrange(1 << 30) for _ in range(2 * iterations + 1)]
        trial_specs.append((physical_order, seeds))
    best_layout: Optional[Layout] = None
    best_swaps = None
    for physical_order, seeds in trial_specs:
        layout = Layout(circuit.num_qubits, coupling.num_qubits)
        for logical in range(circuit.num_qubits):
            layout.assign(logical, physical_order[logical])
        position = 0
        for _ in range(iterations):
            forward = reference_sabre_route(circuit, coupling, layout, seed=seeds[position])
            backward = reference_sabre_route(
                reverse, coupling, forward.final_layout, seed=seeds[position + 1]
            )
            position += 2
            layout = backward.final_layout
        final = reference_sabre_route(circuit, coupling, layout, seed=seeds[position])
        if best_swaps is None or final.swap_count < best_swaps:
            best_swaps = final.swap_count
            best_layout = layout
    assert best_layout is not None
    return best_layout


# -- commuting-gate scheduler --------------------------------------------------


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def reference_matching_layer(frontier: nx.Graph, matching: str) -> List[Tuple[int, int]]:
    """One scheduling round: the *matching* (a resolved engine name) of
    the weighted *frontier*, as sorted ``(low, high)`` gate keys."""
    if matching == "blossom":
        matched = nx.max_weight_matching(frontier, maxcardinality=True)
    else:
        matched = _greedy_matching(frontier)
    return sorted(_edge_key(a, b) for a, b in matched)


def reference_schedule_commuting(
    graph: nx.Graph,
    pairs: Sequence[ReusePair],
    reuse_weight: int = REUSE_GATE_WEIGHT,
    matching: str = "auto",
) -> CommutingSchedule:
    """The paper's Step 1-3 scheduler for a commuting gate set.

    Builds the imposed dependence graph ``G_D`` (every gate on a pair's
    source precedes its measurement node; the measurement precedes every
    gate on the target), then repeatedly schedules a matching of
    dependency-free gates, preferring gates that feed reuse measurements.

    Raises:
        ReuseError: when the pair set is cyclic (the schedule stalls) or a
            pair violates Condition 1.
    """
    matching = resolve_matching(matching, graph)
    gates: List[Tuple[int, int]] = sorted(_edge_key(*edge) for edge in graph.edges)

    feeds: Dict[Tuple[int, int], List[ReusePair]] = {g: [] for g in gates}
    pending_source_gates: Dict[ReusePair, int] = {}
    blocked_by: Dict[Tuple[int, int], int] = {g: 0 for g in gates}
    releases: Dict[ReusePair, List[Tuple[int, int]]] = {}

    for pair in pairs:
        if graph.has_edge(pair.source, pair.target):
            raise ReuseError(f"{pair} violates Condition 1 (edge in graph)")
        source_gates = [g for g in gates if pair.source in g]
        target_gates = [g for g in gates if pair.target in g]
        pending_source_gates[pair] = len(source_gates)
        releases[pair] = target_gates
        for g in source_gates:
            feeds[g].append(pair)
        for g in target_gates:
            blocked_by[g] += 1

    remaining: Set[Tuple[int, int]] = set(gates)
    fired: Set[ReusePair] = set()
    layers: List[List[Tuple[int, int]]] = []
    measure_after_layer: Dict[ReusePair, int] = {}

    def _fire_ready(layer_index: int) -> None:
        progressed = True
        while progressed:
            progressed = False
            for pair in pairs:
                if pair in fired or pending_source_gates[pair] > 0:
                    continue
                fired.add(pair)
                measure_after_layer[pair] = layer_index
                for g in releases[pair]:
                    blocked_by[g] -= 1
                progressed = True

    _fire_ready(-1)

    while remaining:
        frontier = [g for g in remaining if blocked_by[g] == 0]
        if not frontier:
            raise ReuseError("reuse pairs create a dependency cycle (stalled)")
        subgraph = nx.Graph()
        for g in frontier:
            subgraph.add_edge(g[0], g[1], weight=reuse_weight if feeds[g] else 1)
        layer = reference_matching_layer(subgraph, matching)
        if not layer:
            raise ReuseError("matching produced an empty layer")
        layers.append(layer)
        for g in layer:
            remaining.discard(g)
            for pair in feeds[g]:
                pending_source_gates[pair] -= 1
        _fire_ready(len(layers) - 1)
    return CommutingSchedule(layers, measure_after_layer)


def reference_schedule_depth_estimate(
    schedule: CommutingSchedule, pairs: Sequence[ReusePair]
) -> int:
    """Layers plus three levels per reuse on the longest reuse chain."""
    parent = {pair.target: pair.source for pair in pairs}

    def _depth(q: int) -> int:
        depth = 0
        seen = set()
        while q in parent and q not in seen:
            seen.add(q)
            depth += 1
            q = parent[q]
        return depth

    longest_chain = max((_depth(pair.target) for pair in pairs), default=0)
    return schedule.num_layers + 3 * longest_chain


def reference_extension_costs(
    graph: nx.Graph,
    pairs: List[ReusePair],
    candidates: Sequence[ReusePair],
    matching: str,
) -> List[Optional[int]]:
    """Depth-estimate cost of every candidate extension, each scheduled to
    its last layer; ``None`` for candidates whose pair set stalls the
    scheduler or breaks Condition 1."""
    costs: List[Optional[int]] = []
    for candidate in candidates:
        trial = pairs + [candidate]
        try:
            schedule = reference_schedule_commuting(graph, trial, matching=matching)
        except ReuseError:
            costs.append(None)
            continue
        costs.append(reference_schedule_depth_estimate(schedule, trial))
    return costs


# -- exact simulation ----------------------------------------------------------
#
# The trajectory engines sample; the density matrix computes *exact* noisy
# output distributions for small circuits.  Dynamic circuits entangle the
# quantum state with classical bits, so the simulation tracks an ensemble
# ``{classical bitstring -> (probability, density matrix)}``: a measurement
# splits every branch in two (Born probabilities, then the readout-flip
# confusion) and a classically conditioned gate applies only on matching
# branches.  Noise mirrors :class:`~repro.sim.noise.NoiseModel`'s
# depolarizing channels and readout confusion; T1/T2 relaxation needs the
# wire clock and stays trajectory-only.


_DENSITY_MAX_QUBITS = 10


class DensityMatrix:
    """A mutable *n*-qubit mixed state (2^n x 2^n matrix)."""

    def __init__(self, num_qubits: int):
        if num_qubits < 0 or num_qubits > _DENSITY_MAX_QUBITS:
            raise SimulationError(
                f"density-matrix simulation limited to {_DENSITY_MAX_QUBITS} qubits"
            )
        self.num_qubits = num_qubits
        dim = 2**num_qubits
        self.matrix = np.zeros((dim, dim), dtype=np.complex128)
        self.matrix[0, 0] = 1.0

    def copy(self) -> "DensityMatrix":
        out = DensityMatrix.__new__(DensityMatrix)
        out.num_qubits = self.num_qubits
        out.matrix = self.matrix.copy()
        return out

    # -- operator plumbing -----------------------------------------------------

    def _expand(self, operator: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        """Lift a k-qubit operator onto the full Hilbert space."""
        k = len(qubits)
        n = self.num_qubits
        out = np.zeros((2**n, 2**n), dtype=np.complex128)
        for row in range(2**n):
            row_bits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
            sub_row = 0
            for q in qubits:
                sub_row = (sub_row << 1) | row_bits[q]
            for sub_col in range(2**k):
                if abs(operator[sub_row, sub_col]) < 1e-15:
                    continue
                col_bits = list(row_bits)
                for index, q in enumerate(qubits):
                    col_bits[q] = (sub_col >> (k - 1 - index)) & 1
                col = 0
                for bit in col_bits:
                    col = (col << 1) | bit
                out[row, col] += operator[sub_row, sub_col]
        return out

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        full = self._expand(matrix, qubits)
        self.matrix = full @ self.matrix @ full.conj().T

    def apply_kraus(self, kraus: Sequence[np.ndarray], qubits: Sequence[int]) -> None:
        total = np.zeros_like(self.matrix)
        for operator in kraus:
            full = self._expand(operator, qubits)
            total += full @ self.matrix @ full.conj().T
        self.matrix = total

    def apply_depolarizing(self, probability: float, qubits: Sequence[int]) -> None:
        """Uniform stochastic Pauli channel matching the trajectory model."""
        if probability <= 0:
            return
        paulis = {
            "I": np.eye(2, dtype=np.complex128),
            "X": gates.gate_matrix("x"),
            "Y": gates.gate_matrix("y"),
            "Z": gates.gate_matrix("z"),
        }
        if len(qubits) == 1:
            labels = ["X", "Y", "Z"]
        else:
            labels = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
        mixed = (1.0 - probability) * self.matrix
        share = probability / len(labels)
        for label in labels:
            branch = self.matrix
            for pauli, qubit in zip(label, qubits):
                if pauli == "I":
                    continue
                full = self._expand(paulis[pauli], (qubit,))
                branch = full @ branch @ full.conj().T
            mixed = mixed + share * branch
        self.matrix = mixed

    def measurement_probabilities(self, qubit: int) -> Tuple[float, float]:
        """(P(0), P(1)) of measuring *qubit*."""
        n = self.num_qubits
        diag = np.real(np.diag(self.matrix))
        p1 = sum(
            value
            for index, value in enumerate(diag)
            if (index >> (n - 1 - qubit)) & 1
        )
        total = diag.sum()
        return (max(total - p1, 0.0), max(p1, 0.0))

    def project(self, qubit: int, outcome: int) -> float:
        """Project onto |outcome> on *qubit*; return the branch probability.

        The post-projection matrix is renormalised when the probability is
        non-zero.
        """
        n = self.num_qubits
        keep = np.array(
            [((index >> (n - 1 - qubit)) & 1) == outcome for index in range(2**n)]
        )
        projected = self.matrix.copy()
        projected[~keep, :] = 0
        projected[:, ~keep] = 0
        probability = float(np.real(np.trace(projected)))
        if probability > 1e-15:
            self.matrix = projected / probability
        else:
            self.matrix = projected
        return probability

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).clip(min=0.0)


def exact_distribution(
    circuit: QuantumCircuit,
    noise: Optional[NoiseModel] = None,
    prune_below: float = 1e-12,
) -> Dict[str, float]:
    """Exact classical-bit distribution of *circuit* under gate/readout noise.

    Returns ``{clbit string: probability}`` with clbit 0 leftmost (the
    same convention as :func:`repro.sim.statevector.run_counts`).

    Raises:
        SimulationError: for circuits wider than the density-matrix cap.
    """
    if circuit.num_clbits == 0:
        raise SimulationError("circuit has no classical bits")
    branches: Dict[Tuple[int, ...], Tuple[float, DensityMatrix]] = {
        (0,) * circuit.num_clbits: (1.0, DensityMatrix(circuit.num_qubits))
    }
    for instruction in circuit.data:
        if instruction.is_directive() or instruction.name == "delay":
            continue
        updated: Dict[Tuple[int, ...], Tuple[float, DensityMatrix]] = {}

        def _accumulate(bits: Tuple[int, ...], probability: float, state: DensityMatrix):
            if probability < prune_below:
                return
            if bits in updated:
                old_probability, old_state = updated[bits]
                total = old_probability + probability
                mixed = old_state.copy()
                mixed.matrix = (
                    old_probability * old_state.matrix
                    + probability * state.matrix
                ) / total
                updated[bits] = (total, mixed)
            else:
                updated[bits] = (probability, state)

        for bits, (probability, state) in branches.items():
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if bits[clbit] != value:
                    _accumulate(bits, probability, state)
                    continue
            if instruction.name == "measure":
                qubit = instruction.qubits[0]
                clbit = instruction.clbits[0]
                flip = noise.readout_error(qubit) if noise else 0.0
                for outcome in (0, 1):
                    branch = state.copy()
                    born = branch.project(qubit, outcome)
                    if born < prune_below:
                        continue
                    for recorded in (outcome, 1 - outcome):
                        record_probability = (
                            born * (1 - flip)
                            if recorded == outcome
                            else born * flip
                        )
                        if record_probability < prune_below:
                            continue
                        new_bits = list(bits)
                        new_bits[clbit] = recorded
                        _accumulate(
                            tuple(new_bits),
                            probability * record_probability,
                            branch.copy(),
                        )
                continue
            if instruction.name == "reset":
                qubit = instruction.qubits[0]
                collapsed = state.copy()
                p0 = collapsed.project(qubit, 0)
                one = state.copy()
                p1 = one.project(qubit, 1)
                if p1 > prune_below:
                    one.apply_unitary(gates.gate_matrix("x"), (qubit,))
                    merged = collapsed.copy()
                    merged.matrix = p0 * collapsed.matrix + p1 * one.matrix
                    merged.matrix /= max(p0 + p1, 1e-15)
                    collapsed = merged
                _accumulate(bits, probability, collapsed)
                continue
            # unitary gate
            branch = state.copy()
            branch.apply_unitary(
                gates.gate_matrix(instruction.name, instruction.params),
                instruction.qubits,
            )
            if noise is not None:
                branch.apply_depolarizing(
                    noise.gate_error(instruction.name, instruction.qubits),
                    instruction.qubits,
                )
            _accumulate(bits, probability, branch)
        branches = updated

    distribution: Dict[str, float] = {}
    for bits, (probability, _state) in branches.items():
        key = "".join(map(str, bits))
        distribution[key] = distribution.get(key, 0.0) + probability
    total = sum(distribution.values())
    if total > 0:
        distribution = {k: v / total for k, v in distribution.items()}
    return distribution

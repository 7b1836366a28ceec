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

The exact engine (:class:`~repro.core.exact.ExactReuse`) is the referee
for *width* only; it does not replace any of these.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.core import session as _session
from repro.core.conditions import ReuseAnalysis, ReusePair
from repro.core.evaluate import evaluate_pair_depth, evaluate_pair_duration
from repro.core.qs_caqr import QSCaQR, QSCaQRResult
from repro.core.sr_caqr import _DIRTY, _FRESH, SRCaQR, SRCaQRResult
from repro.core.transform import apply_reuse_pair
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import ReuseError
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.layout import Layout
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = [
    "ReferenceQSCaQR",
    "ReferenceSRCaQR",
    "nx_lookahead_kernel",
    "nx_potential",
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

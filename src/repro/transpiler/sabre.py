"""SABRE swap routing and layout search (Li, Ding, Xie — ASPLOS 2019).

SABRE is the state-of-the-art mapper the paper uses after QS-CaQR's logical
transformation, and it is what Qiskit's optimisation level 3 runs — so it
doubles as our baseline router.

The implementation follows the published algorithm: a front layer of
unresolved two-qubit gates, a heuristic swap score combining the front
layer's distance sum with a look-ahead window of upcoming gates, and decay
factors that discourage thrashing a single qubit.  A stall-escape fallback
routes the oldest front gate along a shortest path if the heuristic loops.

Routing is split in two (see ``docs/ROUTER.md``):

* a :class:`RoutingProblem` holds everything about one circuit on one
  device that no routing pass changes — node order, in-degrees, routing
  flags, qubit pairs, successor tuples, neighbour candidates and the hop
  distances — and is built once;
* one routing loop (:meth:`RoutingProblem.route`) runs a pass over it
  from a layout and a seed.  It appends to an output circuit when given
  one; layout passes, which read only the final layout and the SWAP
  count, pass none.

:func:`search_layout` shares one forward and one reverse problem across
every trial and iteration of the bidirectional search, and can fan its
independent trials out to a process pool (``parallel=``, see
:mod:`repro.parallel`) once the search is large enough to pay for one
(:data:`LAYOUT_PARALLEL_THRESHOLD`).

Each scoring step looks up the blocked front's look-ahead window in a
memo on the problem, keyed by the front's node ids: the window depends
only on the front and the DAG, so a front one pass has seen costs the
next pass (of any trial, or the emitting pass) one dict lookup.  The
memo lives and dies with its problem.  Candidates are then scored in one
fused pass: the front's and the window's distance sums are exact
integers updated per candidate by the gates on the swapped qubits only.

Every decision is bit-identical to the from-scratch router kept as
``tests/oracles.reference_sabre_route``: candidates are scored in
set-iteration order with the same RNG tie-break stream and the same
float operations, the first minimum of (score, tie) wins, and layout
trials pre-draw their RNG material serially so the winning layout never
depends on worker timing.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import TranspilerError
from repro.hardware.coupling import CouplingMap
from repro.parallel import default_workers, fans_out, pooled_map
from repro.stats import Stats
from repro.transpiler.layout import Layout, trivial_layout

__all__ = [
    "sabre_route", "sabre_layout", "RoutingResult", "RoutingProblem", "search_layout",
    "LAYOUT_PARALLEL_THRESHOLD",
]

#: Routed two-qubit gates × trials at which :func:`search_layout` fans its
#: trials out by default: below it a per-call pool costs more than it
#: saves (measured break-even in ``docs/ROUTER.md``).
LAYOUT_PARALLEL_THRESHOLD = 512

_EXTENDED_SET_SIZE = 20
_EXTENDED_SET_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_STALL_LIMIT = 100


class RoutingResult:
    """Output of :func:`sabre_route`.

    Attributes:
        circuit: physical circuit (qubit indices are *physical*), with
            inserted SWAP gates.
        initial_layout: layout at circuit start.
        final_layout: layout after all gates (useful for reverse passes).
        swap_count: number of inserted SWAPs.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        swap_count: int,
    ):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swap_count = swap_count


def _requires_routing(instruction: Instruction) -> bool:
    return instruction.is_two_qubit() or (
        len(instruction.qubits) == 2 and instruction.name == "swap"
    )


def _partners(
    gates: Sequence[Tuple[int, int]], l2p: List[Optional[int]], distance: List[List[int]]
) -> Tuple[int, Dict[int, List[int]]]:
    """Distance sum of the logical *gates* under *l2p*, and each physical
    qubit's partners among them."""
    base = 0
    partners: Dict[int, List[int]] = {}
    for a, b in gates:
        pa, pb = l2p[a], l2p[b]
        base += distance[pa][pb]
        partners.setdefault(pa, []).append(pb)
        partners.setdefault(pb, []).append(pa)
    return base, partners


class RoutingProblem:
    """One circuit on one device, prepared once for any number of passes.

    Node *i* is ``circuit.data[i]``.  The successor tuples keep the DAG's
    set order (``successors``, which the front list follows) and sorted
    order (``sorted_successors``, which the look-ahead BFS follows); the
    candidate pairs of each physical qubit keep the order of
    :meth:`CouplingMap.neighbors`.  Every order lives in a tuple, so a
    problem pickles into a pool task with its orders intact.  ``windows``
    memoises each blocked front's look-ahead window for every pass over
    this problem; a pool worker's copy starts from the memo as shipped.

    Raises:
        TranspilerError: a gate acts on more than two qubits (checked
            first), or the circuit is wider than the device.
    """

    def __init__(self, circuit: QuantumCircuit, coupling: CouplingMap):
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
        dag = DAGCircuit.from_circuit(circuit)
        self.circuit = circuit
        self.coupling = coupling
        self.in_degree = [dag.in_degree(node_id) for node_id in dag.nodes]
        self.routes = [_requires_routing(i) for i in circuit.data]
        self.pairs = [
            i.qubits if routes else None for i, routes in zip(circuit.data, self.routes)
        ]
        self.successors = [tuple(dag.successors(node_id)) for node_id in dag.nodes]
        self.sorted_successors = [tuple(sorted(s)) for s in self.successors]
        self.used = sorted({q for i in circuit.data for q in i.qubits})
        neighbors = [coupling.neighbors(p) for p in range(coupling.num_qubits)]
        self.adjacency = [frozenset(n) for n in neighbors]
        self.candidate_pairs = [
            tuple(tuple(sorted((p, n))) for n in neighbors[p])
            for p in range(coupling.num_qubits)
        ]
        self.distance = coupling.distance_matrix().tolist()
        self.windows: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}

    def _window(self, blocked: List[int]) -> List[Tuple[int, int]]:
        """Look-ahead window of a blocked front: the logical qubit pairs of
        its nearest routed descendants, memoised per front in
        :attr:`windows` (the window depends on nothing else)."""
        key = tuple(blocked)
        window = self.windows.get(key)
        if window is None:
            successors, routes, pairs = self.sorted_successors, self.routes, self.pairs
            window = []
            queue = deque(blocked)
            seen: Set[int] = set(blocked)
            while queue and len(window) < _EXTENDED_SET_SIZE:
                for successor in successors[queue.popleft()]:
                    if successor not in seen:
                        seen.add(successor)
                        if routes[successor]:
                            window.append(pairs[successor])
                        queue.append(successor)
            self.windows[key] = window
        return window

    def route(
        self,
        layout: Layout,
        seed: int,
        stats: Optional[Stats] = None,
        out: Optional[QuantumCircuit] = None,
    ) -> Tuple[Layout, int]:
        """One routing pass from a copy of *layout*.

        Appends the routed gates and inserted SWAPs to *out* when given
        one; returns the final layout and the SWAP count either way.
        """
        layout = layout.copy()
        l2p = layout._l2p
        for logical in self.used:
            if l2p[logical] is None:
                raise TranspilerError(f"logical qubit {logical} is not mapped")
        coupling = self.coupling
        data = self.circuit.data
        routes = self.routes
        pairs = self.pairs
        adjacency = self.adjacency
        successors = self.successors
        candidate_pairs = self.candidate_pairs
        distance = self.distance
        rng = random.Random(seed)

        in_degree = list(self.in_degree)
        front: List[int] = [node_id for node_id, degree in enumerate(in_degree) if degree == 0]
        unresolved = len(in_degree)
        decay = [1.0] * coupling.num_qubits
        swap_count = 0
        stall = 0
        iterations = 0
        candidates_scored = 0

        def _swap(a: int, b: int) -> None:
            if out is not None:
                out.swap(a, b)
            layout.swap_physical(a, b)

        while front or unresolved > 0:
            iterations += 1
            # 1. execute everything executable; a round visits the front as
            # it stood and appends newly ready nodes after the survivors
            progress = True
            while progress:
                kept: List[int] = []
                ready: List[int] = []
                for node_id in front:
                    if routes[node_id]:
                        a, b = pairs[node_id]
                        if l2p[b] not in adjacency[l2p[a]]:
                            kept.append(node_id)
                            continue
                    if out is not None:
                        out.append(data[node_id].remapped(l2p.__getitem__))
                    unresolved -= 1
                    for successor in successors[node_id]:
                        in_degree[successor] -= 1
                        if in_degree[successor] == 0:
                            ready.append(successor)
                progress = len(kept) < len(front)
                front = kept + ready
            if not front:
                if unresolved > 0:
                    raise TranspilerError("routing stalled with pending gates")
                break

            # every node left in the front is a routed gate
            blocked = front
            stall += 1
            if stall > _STALL_LIMIT:
                # escape: route the oldest blocked gate directly
                a, b = pairs[blocked[0]]
                path = coupling.shortest_path(l2p[a], l2p[b])
                for step in range(len(path) - 2):
                    _swap(path[step], path[step + 1])
                    swap_count += 1
                stall = 0
                continue

            # 2. score candidate swaps in set-iteration order, so the RNG
            # tie-break stream matches the reference router element for
            # element; each score is the reference's float expression on
            # exact integer distance sums, and the first minimum of
            # (score, tie) wins
            candidates: Set[Tuple[int, int]] = set()
            for node_id in blocked:
                a, b = pairs[node_id]
                candidates.update(candidate_pairs[l2p[a]])
                candidates.update(candidate_pairs[l2p[b]])
            window = self._window(blocked)
            base_b, near_b = _partners([pairs[n] for n in blocked], l2p, distance)
            base_e, near_e = _partners(window, l2p, distance)
            n_b, n_e = len(blocked), len(window)
            candidates_scored += len(candidates)

            best = None
            best_score = best_tie = float("inf")
            for candidate in candidates:
                tie = rng.random()
                a, b = candidate
                row_a, row_b = distance[a], distance[b]
                # only gates on a swapped qubit move; a gate on both keeps
                # its distance (the matrix is symmetric)
                t_b = base_b
                for other in near_b.get(a, ()):
                    if other != b:
                        t_b += row_b[other] - row_a[other]
                for other in near_b.get(b, ()):
                    if other != a:
                        t_b += row_a[other] - row_b[other]
                score = t_b / n_b
                if n_e:
                    t_e = base_e
                    for other in near_e.get(a, ()):
                        if other != b:
                            t_e += row_b[other] - row_a[other]
                    for other in near_e.get(b, ()):
                        if other != a:
                            t_e += row_a[other] - row_b[other]
                    score = score + _EXTENDED_SET_WEIGHT * t_e / n_e
                score = max(decay[a], decay[b]) * score
                if score < best_score or (score == best_score and tie < best_tie):
                    best, best_score, best_tie = candidate, score, tie
            _swap(*best)
            swap_count += 1
            decay[best[0]] += _DECAY_INCREMENT
            decay[best[1]] += _DECAY_INCREMENT
            if iterations % _DECAY_RESET_INTERVAL == 0:
                decay = [1.0] * coupling.num_qubits

        if stats is not None:
            stats.count("route_calls")
            stats.count("swap_candidates_scored", candidates_scored)
            stats.count("swaps_inserted", swap_count)
        return layout, swap_count

    def routed(
        self,
        initial_layout: Optional[Layout] = None,
        seed: int = 11,
        stats: Optional[Stats] = None,
    ) -> RoutingResult:
        """The routing pass that emits the physical circuit."""
        circuit, coupling = self.circuit, self.coupling
        start = (
            initial_layout or trivial_layout(circuit.num_qubits, coupling.num_qubits)
        ).copy()
        out = QuantumCircuit(coupling.num_qubits, circuit.num_clbits, circuit.name)
        final, swap_count = self.route(start, seed, stats, out)
        return RoutingResult(out, start, final, swap_count)


def sabre_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
    seed: int = 11,
    stats: Optional[Stats] = None,
) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate touches coupled physical qubits.

    Args:
        circuit: logical circuit; gates of arity > 2 must be decomposed first.
        coupling: target connectivity.
        initial_layout: starting placement (trivial when omitted).
        seed: tie-breaking RNG seed.
        stats: optional :class:`Stats` sink for counters.

    Returns:
        A :class:`RoutingResult` whose circuit indexes *physical* qubits.
    """
    return RoutingProblem(circuit, coupling).routed(initial_layout, seed, stats)


def _layout_trial(
    problem: RoutingProblem,
    reverse: RoutingProblem,
    iterations: int,
    physical_order: Sequence[int],
    seeds: Sequence[int],
) -> Tuple[Layout, int, Stats]:
    """One bidirectional layout trial, a pure function of its pre-drawn RNG
    material (*physical_order* and the routing *seeds*)."""
    stats = Stats()
    layout = Layout(problem.circuit.num_qubits, problem.coupling.num_qubits)
    for logical in range(problem.circuit.num_qubits):
        layout.assign(logical, physical_order[logical])
    position = 0
    for _ in range(iterations):
        forward, _ = problem.route(layout, seeds[position], stats)
        layout, _ = reverse.route(forward, seeds[position + 1], stats)
        position += 2
    _, swap_count = problem.route(layout, seeds[position], stats)
    return layout, swap_count, stats


def _layout_trial_worker(payload):
    """Module-level adapter so trials pickle into a process pool."""
    return _layout_trial(*payload)


def sabre_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    seed: int = 11,
    iterations: int = 3,
    trials: int = 4,
    parallel: Optional[bool] = None,
    stats: Optional[Stats] = None,
) -> Layout:
    """SABRE's bidirectional layout search.

    Runs forward/backward routing passes so the final layout of one pass
    seeds the next, over several random starting placements; returns the
    layout whose forward pass inserted the fewest SWAPs.

    Each trial's RNG material (initial shuffle + per-pass routing seeds) is
    drawn serially up front, which makes trials pure functions that can run
    on a process pool; the reduction keeps the earliest trial with strictly
    fewer SWAPs, exactly like the serial loop, so serial and parallel
    searches return bit-identical layouts.

    Args:
        parallel: ``True`` forces the process pool, ``False`` forces the
            in-process loop, ``None`` (default) uses the pool only with
            more than one worker and more than one trial, and a workload
            (routed two-qubit gates × trials) at
            :data:`LAYOUT_PARALLEL_THRESHOLD`
            (:func:`repro.parallel.fans_out`).
        stats: optional :class:`Stats` sink (worker-side counters are
            merged back in).
    """
    return search_layout(
        RoutingProblem(circuit, coupling), seed, iterations, trials, parallel, stats
    )


def search_layout(
    problem: RoutingProblem,
    seed: int = 11,
    iterations: int = 3,
    trials: int = 4,
    parallel: Optional[bool] = None,
    stats: Optional[Stats] = None,
) -> Layout:
    """:func:`sabre_layout` over a prebuilt forward *problem*; the reverse
    problem is built once here and shared by every trial.

    The trials fan out to a per-call process pool under *parallel*; at the
    default ``None`` only when ``sum(problem.routes) * trials`` reaches
    :data:`LAYOUT_PARALLEL_THRESHOLD`, below which the pool's start-up
    costs more than the trials it splits.  Pooled and serial searches
    return the same layout."""
    circuit = problem.circuit
    reverse_circuit = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for instruction in reversed(circuit.data):
        reverse_circuit.append(instruction)
    reverse = RoutingProblem(reverse_circuit, problem.coupling)

    # pre-draw every trial's RNG material in the exact serial order
    rng = random.Random(seed)
    trial_specs = []
    for _ in range(trials):
        physical_order = list(range(problem.coupling.num_qubits))
        rng.shuffle(physical_order)
        seeds = [rng.randrange(1 << 30) for _ in range(2 * iterations + 1)]
        trial_specs.append((physical_order, seeds))

    results: List[Tuple[Layout, int, Stats]]
    workers = default_workers()
    workload = sum(problem.routes) * trials
    if fans_out(
        parallel, trials, workers, workload=workload, threshold=LAYOUT_PARALLEL_THRESHOLD
    ):
        payloads = [
            (problem, reverse, iterations, order, seeds) for order, seeds in trial_specs
        ]
        results = pooled_map(_layout_trial_worker, payloads, workers)
        if stats is not None:
            stats.count("parallel_trials", len(results))
    else:
        results = [
            _layout_trial(problem, reverse, iterations, order, seeds)
            for order, seeds in trial_specs
        ]
        if stats is not None:
            stats.count("serial_trials", len(results))

    best_layout: Optional[Layout] = None
    best_swaps = None
    for layout, trial_swaps, trial_stats in results:
        if stats is not None:
            stats.count("layout_trials")
            stats.merge(trial_stats)
        if best_swaps is None or trial_swaps < best_swaps:
            best_swaps = trial_swaps
            best_layout = layout
    assert best_layout is not None
    return best_layout

"""SABRE swap routing and layout search (Li, Ding, Xie — ASPLOS 2019).

SABRE is the state-of-the-art mapper the paper uses after QS-CaQR's logical
transformation, and it is what Qiskit's optimisation level 3 runs — so it
doubles as our baseline router.

The implementation follows the published algorithm: a front layer of
unresolved two-qubit gates, a heuristic swap score combining the front
layer's distance sum with a look-ahead window of upcoming gates, and decay
factors that discourage thrashing a single qubit.  A stall-escape fallback
routes the oldest front gate along a shortest path if the heuristic loops.

Swap-candidate scoring is vectorised over the candidate set with numpy
against the shared read-only :meth:`CouplingMap.distance_matrix`, and
:func:`sabre_layout` can fan its independent trials out to a process pool
(``parallel=`` / ``CAQR_ROUTE_WORKERS``).  Both paths are bit-identical to
the serial scalar implementation: candidates are scored in set-iteration
order with the same RNG tie-break stream, and layout trials pre-draw their
RNG material serially so the winning layout never depends on worker timing
(see ``docs/ROUTER.md``).
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import TranspilerError
from repro.hardware.coupling import CouplingMap
from repro.stats import Stats
from repro.transpiler.layout import Layout, trivial_layout

__all__ = ["sabre_route", "sabre_layout", "RoutingResult"]

_EXTENDED_SET_SIZE = 20
_EXTENDED_SET_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_STALL_LIMIT = 100


def _route_workers() -> int:
    """Worker-pool size for parallel layout trials.

    ``CAQR_ROUTE_WORKERS`` overrides; the default caps at 8 processes.
    """
    override = os.environ.get("CAQR_ROUTE_WORKERS")
    if override:
        return max(1, int(override))
    return min(os.cpu_count() or 1, 8)


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
        while queue and len(result) < _EXTENDED_SET_SIZE:
            node_id = queue.pop(0)
            for successor in sorted(dag.successors(node_id)):
                if successor in seen:
                    continue
                seen.add(successor)
                instruction = dag.nodes[successor].instruction
                if instruction is not None and _requires_routing(instruction):
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
                if instruction is None or not _requires_routing(instruction):
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
            and _requires_routing(dag.nodes[node_id].instruction)
        ]
        if not blocked:
            continue

        stall += 1
        if stall > _STALL_LIMIT:
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
                _EXTENDED_SET_WEIGHT
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
        decay[best[0]] += _DECAY_INCREMENT
        decay[best[1]] += _DECAY_INCREMENT
        if iterations % _DECAY_RESET_INTERVAL == 0:
            decay.fill(1.0)

    if stats is not None:
        stats.count("route_calls")
        stats.count("swap_candidates_scored", candidates_scored)
        stats.count("swaps_inserted", swap_count)
    return RoutingResult(out, initial, layout, swap_count)


def _layout_trial(
    circuit: QuantumCircuit,
    reverse: QuantumCircuit,
    coupling: CouplingMap,
    iterations: int,
    physical_order: Sequence[int],
    seeds: Sequence[int],
) -> Tuple[Layout, int, Stats]:
    """One bidirectional layout trial, a pure function of its pre-drawn RNG
    material (*physical_order* and the routing *seeds*)."""
    stats = Stats()
    layout = Layout(circuit.num_qubits, coupling.num_qubits)
    for logical in range(circuit.num_qubits):
        layout.assign(logical, physical_order[logical])
    position = 0
    for _ in range(iterations):
        forward = sabre_route(
            circuit, coupling, layout, seed=seeds[position], stats=stats
        )
        backward = sabre_route(
            reverse, coupling, forward.final_layout, seed=seeds[position + 1], stats=stats
        )
        position += 2
        layout = backward.final_layout
    final = sabre_route(circuit, coupling, layout, seed=seeds[position], stats=stats)
    return layout, final.swap_count, stats


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
            in-process loop, ``None`` (default) uses the pool only when
            more than one worker (``CAQR_ROUTE_WORKERS``) and more than one
            trial are available.
        stats: optional :class:`Stats` sink (worker-side counters are
            merged back in).
    """
    rng = random.Random(seed)
    reverse = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for instruction in reversed(circuit.data):
        reverse.append(instruction.copy())

    # pre-draw every trial's RNG material in the exact serial order
    trial_specs = []
    for _ in range(trials):
        physical_order = list(range(coupling.num_qubits))
        rng.shuffle(physical_order)
        seeds = [rng.randrange(1 << 30) for _ in range(2 * iterations + 1)]
        trial_specs.append((physical_order, seeds))

    workers = _route_workers()
    use_parallel = (
        parallel if parallel is not None else (workers > 1 and trials > 1)
    )
    results: List[Tuple[Layout, int, Stats]]
    if use_parallel and trials > 1:
        payloads = [
            (circuit, reverse, coupling, iterations, order, seeds)
            for order, seeds in trial_specs
        ]
        with ProcessPoolExecutor(max_workers=min(workers, trials)) as pool:
            results = list(pool.map(_layout_trial_worker, payloads))
        if stats is not None:
            stats.count("parallel_trials", len(results))
    else:
        results = [
            _layout_trial(circuit, reverse, coupling, iterations, order, seeds)
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

"""SR-CaQR: dynamic-circuit-aware mapping targeting SWAP reduction
(paper Section 3.3).

The router compiles the logical circuit layer by layer, mapping logical
qubits to physical qubits *lazily*:

* frontier gates **on the critical path** are scheduled immediately —
  their unmapped qubits get placed using the paper's Step-2 heuristics
  (qubit with more gates first; best-connected / lowest-error free
  physical qubit; partner placed at minimum distance, ties broken by
  readout / CNOT error);
* frontier gates **off the critical path** are *delayed*, so by the time
  their qubits must be placed, earlier logical qubits may have finished
  and released their physical qubits back into ``physicalList`` — placing
  a fresh logical qubit onto a released wire is a qubit reuse, and the
  broader choice of placements is what removes SWAPs;
* blocked two-qubit gates get SWAPs inserted one at a time along an
  error-aware shortest path (Step 3's "heuristic ... with the
  consideration of error variability").

A physical qubit is only released for reuse when its logical qubit's final
operation was a measurement (the paper's setting: reused qubits are
measured first — their outcome is still needed).

The scheduler is incremental: it maintains slack, the frontier, and
per-qubit gate counts under node-resolution deltas — ALAP tail depths
are fixed once (scheduled nodes are always frontier nodes, so the
unscheduled set is an up-set and a node's successor chain never
changes), ASAP labels are repaired by a worklist, and placement / SWAP
scoring is vectorised against shared read-only distance matrices.  It
emits bit-identical circuits to the from-scratch scheduler it replaced,
``ReferenceSRCaQR`` in ``tests/oracles.py``, which the differential
harness in ``tests/property/test_router_determinism.py`` pins it
against.  ``SRCaQR.run`` can fan its candidate × hint-seed
trial grid out to a process pool (``parallel=`` / ``CAQR_ROUTE_WORKERS``)
with a grid-ordered reduction that keeps the selection bit-identical to
the serial sweep (see ``docs/ROUTER.md``).
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import HardwareError, ReuseError, TranspilerError
from repro.hardware.backends import Backend
from repro.stats import Stats
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.layout import Layout
from repro.transpiler.sabre import _route_workers, sabre_layout
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = ["SRCaQRResult", "SRCaQR"]

_FRESH = ("fresh", None)
_DIRTY = ("dirty", None)


@dataclass
class SRCaQRResult:
    """Output of the SR-CaQR router.

    Attributes:
        circuit: physical circuit (indices are device qubits) with SWAPs
            and the reuse reset operations inserted.
        swap_count: SWAPs inserted.
        reuse_count: times a logical qubit was placed on a released wire.
        qubits_used: distinct physical qubits that carried operations.
        depth / duration_dt: metrics of the physical circuit.
    """

    circuit: QuantumCircuit
    swap_count: int
    reuse_count: int
    qubits_used: int
    depth: int
    duration_dt: int


def _sr_trial_worker(payload):
    """Module-level adapter: run one (candidate, hint-seed) grid cell in a
    worker process and ship its result + stats back for merging."""
    router, circuit, hint_seed = payload
    router.stats = Stats()
    result = router._run_once(circuit, hint_seed=hint_seed)
    return result, router.stats


class SRCaQR:
    """Swap-reduction CaQR for regular applications.

    Args:
        backend: target device (coupling + calibration).
        noise_aware: weight SWAP paths and placement by calibration errors
            (when off, plain hop distance is used — the ablation knob).
        reset_style: reset idiom used at reuse points.
        parallel: ``True`` forces the trial grid onto a process pool,
            ``False`` forces the serial sweep, ``None`` (default) uses the
            pool only when more than one worker (``CAQR_ROUTE_WORKERS``)
            and more than one grid cell are available.
        max_workers: worker-pool size cap (default ``CAQR_ROUTE_WORKERS``
            or ``min(cpu_count, 8)``).
    """

    def __init__(
        self,
        backend: Backend,
        noise_aware: bool = True,
        reset_style: str = "cif",
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
    ):
        self.backend = backend
        self.noise_aware = noise_aware
        self.reset_style = reset_style
        self.parallel = parallel
        self.max_workers = max_workers
        self.stats = Stats()
        self._error_graph = self._build_error_graph()
        # error-weighted all-pairs distances for SWAP scoring, packed into
        # a read-only ndarray shared across every trial (and, pickled, with
        # every worker process); on a noise-blind run these equal hop
        # distances
        self._error_distance = self._build_error_distance()
        num_qubits = self.backend.num_qubits
        adjacency = np.zeros((num_qubits, num_qubits), dtype=bool)
        link_error = np.ones((num_qubits, num_qubits), dtype=np.float64)
        for a, b in self.backend.coupling.edges:
            adjacency[a, b] = adjacency[b, a] = True
            error = self.backend.calibration.get_cx_error(a, b)
            link_error[a, b] = link_error[b, a] = error
        adjacency.setflags(write=False)
        link_error.setflags(write=False)
        self._adjacency_matrix = adjacency
        self._link_error = link_error
        readout = np.array(
            [
                self.backend.calibration.get_readout_error(p)
                for p in range(num_qubits)
            ],
            dtype=np.float64,
        )
        readout.setflags(write=False)
        self._readout_error = readout

    def _build_error_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(range(self.backend.num_qubits))
        for a, b in self.backend.coupling.edges:
            if self.noise_aware:
                error = self.backend.calibration.get_cx_error(a, b)
                weight = -math.log(max(1.0 - error, 1e-9))
            else:
                weight = 1.0
            graph.add_edge(a, b, weight=weight)
        return graph

    def _build_error_distance(self) -> np.ndarray:
        """All-pairs error-weighted distances as a read-only ndarray."""
        self.stats.count("distance_cache_builds")
        num_qubits = self.backend.num_qubits
        matrix = np.full((num_qubits, num_qubits), np.inf, dtype=np.float64)
        for source, lengths in nx.all_pairs_dijkstra_path_length(
            self._error_graph, weight="weight"
        ):
            for target, weight in lengths.items():
                matrix[source, target] = weight
        matrix.setflags(write=False)
        return matrix

    # -- the main pass -------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        trials: int = 3,
        qs_assist: bool = True,
        objective: str = "swaps",
        parallel: Optional[bool] = None,
        seed_base: Optional[int] = None,
    ) -> SRCaQRResult:
        """Compile *circuit* onto the backend with lazy mapping and reuse.

        The circuit may be *wider* than the device: reuse frees wires, so
        only the number of concurrently-live logical qubits is bounded
        (a :class:`~repro.exceptions.ReuseError` is raised if the free
        pool is ever exhausted).

        Several placement-hint seeds are tried (*trials*), and — mirroring
        SR-CaQR-commuting's Step 1 — with *qs_assist* the router also
        evaluates a few QS-CaQR pre-transformed versions of the circuit
        (imposed reuse dependencies lower mapping congestion on dense
        circuits).  Under the default *objective* the compilation with the
        fewest SWAPs (ties: shortest duration) wins; ``objective="esp"``
        instead maximises the estimated success probability against the
        backend calibration (the paper's fidelity metric — "improved
        estimated success probability").

        The candidate × hint-seed grid cells are independent; with
        *parallel* (or the constructor knob) they fan out to a process
        pool.  Cells are reduced in grid order with a strict ``<`` on the
        objective key, so the parallel sweep selects the exact result the
        serial sweep would.

        *seed_base* anchors the hint-seed stream (default 17): callers
        racing several SR variants over the same circuit can hand each
        lane a distinct base so the lanes explore distinct placement
        streams instead of re-deriving the same seeds.  The hint-less
        first trial is kept regardless, so any base still covers the
        no-hint baseline.
        """
        if objective not in ("swaps", "esp"):
            raise ReuseError(f"unknown SR objective {objective!r}")
        if trials < 1:
            raise ReuseError(f"SR-CaQR needs at least one trial, got {trials}")
        candidates = [circuit]
        if qs_assist and not circuit.has_dynamic_operations():
            from repro.core.qs_caqr import QSCaQR

            sweep = QSCaQR(reset_style=self.reset_style).sweep(circuit)[1:]
            if len(sweep) > 3:
                step = len(sweep) / 3.0
                sweep = [sweep[int(i * step)] for i in range(3)]
            candidates.extend(point.circuit for point in sweep)

        def _key(result: SRCaQRResult):
            if objective == "esp":
                from repro.sim.metrics import estimated_success_probability

                return (
                    -estimated_success_probability(
                        result.circuit, self.backend.calibration
                    ),
                )
            return (result.swap_count, result.duration_dt)

        base = 17 if seed_base is None else int(seed_base)
        seeds: List[Optional[int]] = [None] + [
            base + 24 * t for t in range(trials - 1)
        ]
        grid = [
            (candidate, seed) for candidate in candidates for seed in seeds
        ]
        requested = parallel if parallel is not None else self.parallel
        workers = self.max_workers or _route_workers()
        use_parallel = (
            requested
            if requested is not None
            else (workers > 1 and len(grid) > 1)
        )

        results: List[SRCaQRResult]
        with self.stats.timed("sr_run"):
            if use_parallel and len(grid) > 1:
                payloads = [(self, candidate, seed) for candidate, seed in grid]
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(grid))
                ) as pool:
                    outcomes = list(pool.map(_sr_trial_worker, payloads))
                results = []
                for result, trial_stats in outcomes:
                    self.stats.merge(trial_stats)
                    results.append(result)
                self.stats.count("parallel_trials", len(grid))
            else:
                results = [
                    self._run_once(candidate, hint_seed=seed)
                    for candidate, seed in grid
                ]
                self.stats.count("serial_trials", len(grid))
        self.stats.count("sr_trials", len(grid))

        best: Optional[SRCaQRResult] = None
        best_key = None
        for result in results:
            key = _key(result)
            if best_key is None or key < best_key:
                best, best_key = result, key
        assert best is not None
        self.stats.count("reuses", best.reuse_count)
        return best

    def _hints(self, flat: QuantumCircuit, hint_seed: Optional[int]) -> Dict[int, int]:
        """Placement hints (the paper's "benefit future gates by lookahead"):
        a SABRE layout search suggests where each logical qubit would sit
        in a good global placement; lazy mapping prefers the hinted spot
        when it is free, and otherwise falls back to the local heuristics.
        """
        coupling = self.backend.coupling
        if hint_seed is None or flat.num_qubits > coupling.num_qubits:
            return {}
        try:
            hint_layout = sabre_layout(
                flat,
                coupling,
                seed=hint_seed,
                iterations=2,
                trials=2,
                parallel=False,
                stats=self.stats,
            )
        except (TranspilerError, HardwareError):
            # expected failures only (stalled routing, disconnected device):
            # the router maps without hints; programming errors propagate
            self.stats.count("hint_fallbacks")
            return {}
        return hint_layout.as_dict()

    # -- the scheduler -------------------------------------------------------------

    def _run_once(
        self, circuit: QuantumCircuit, hint_seed: Optional[int]
    ) -> SRCaQRResult:
        flat = decompose_to_two_qubit(circuit)
        dag = DAGCircuit.from_circuit(flat)
        coupling = self.backend.coupling
        num_physical = self.backend.num_qubits
        stats = self.stats
        stats.count("distance_cache_hits")

        hints = self._hints(flat, hint_seed)

        node_count = len(dag.nodes)
        in_degree: Dict[int, int] = {n: dag.in_degree(n) for n in dag.nodes}
        unscheduled: Set[int] = set(dag.nodes)

        # per-qubit instruction-node index: replaces the O(N) full-order
        # scans of dag.nodes_on_qubit in partner lookup / finishing checks
        nodes_by_qubit: List[List[int]] = [[] for _ in range(flat.num_qubits)]
        remaining_gates: Dict[int, int] = {q: 0 for q in range(flat.num_qubits)}
        last_op: Dict[int, Optional[Instruction]] = {
            q: None for q in range(flat.num_qubits)
        }
        for node_id in dag._order:
            instruction = dag.nodes[node_id].instruction
            if instruction is None:
                continue
            for q in instruction.qubits:
                nodes_by_qubit[q].append(node_id)
                remaining_gates[q] += 1

        layout = Layout(flat.num_qubits, num_physical)
        out = QuantumCircuit(num_physical, flat.num_clbits, flat.name)
        wire_state: Dict[int, Tuple[str, Optional[int]]] = {
            p: _FRESH for p in range(num_physical)
        }
        ever_used: Set[int] = set()
        swap_count = 0
        reuse_count = 0
        force_map = False
        wait_budget: Dict[int, int] = {q: 16 for q in range(flat.num_qubits)}

        distance = coupling.distance_matrix()
        error_distance = self._error_distance
        adjacency = self._adjacency_matrix
        readout_error = self._readout_error
        link_error = self._link_error

        # -- incremental slack state -------------------------------------------------
        #
        # Only frontier nodes (in-degree 0 within the unscheduled sub-DAG)
        # are ever scheduled, so the unscheduled set is an up-set: every
        # successor of an unscheduled node is itself unscheduled.  The
        # ALAP side of slack therefore never changes — alap[n] equals
        # horizon - depth_below[n] with depth_below fixed by the full DAG —
        # and only the ASAP labels need repairing when predecessors resolve.
        depth_below = [0] * node_count
        for node_id in range(node_count - 1, -1, -1):
            successors = dag.successors(node_id)
            if successors:
                depth_below[node_id] = 1 + max(
                    depth_below[s] for s in successors
                )
        asap = [0] * node_count
        for node_id in range(node_count):
            asap[node_id] = 1 + max(
                (asap[p] for p in dag.predecessors(node_id)), default=0
            )
        # lazy max-heap over current ASAP labels (horizon queries)
        asap_heap = [(-asap[n], n) for n in range(node_count)]
        heapq.heapify(asap_heap)
        dirty: Set[int] = set()
        frontier_set: Set[int] = {n for n in dag.nodes if in_degree[n] == 0}
        slack_cache_valid = False
        cached_frontier: List[int] = []
        slack: Dict[int, int] = {}
        recomputes = 0
        avoided = 0
        node_updates = 0
        candidates_scored = 0

        # -- inner helpers ---------------------------------------------------------

        def _drain_dirty() -> None:
            """Repair ASAP labels invalidated by resolved predecessors.

            Node ids from ``DAGCircuit.from_circuit`` ascend topologically
            (every edge runs low → high), so draining the worklist in
            ascending id order sees final predecessor labels."""
            nonlocal node_updates
            if not dirty:
                return
            work = [n for n in dirty if n in unscheduled]
            dirty.clear()
            heapq.heapify(work)
            pending = set(work)
            while work:
                node_id = heapq.heappop(work)
                pending.discard(node_id)
                fresh = 1 + max(
                    (
                        asap[p]
                        for p in dag.predecessors(node_id)
                        if p in unscheduled
                    ),
                    default=0,
                )
                if fresh != asap[node_id]:
                    asap[node_id] = fresh
                    heapq.heappush(asap_heap, (-fresh, node_id))
                    node_updates += 1
                    for successor in dag.successors(node_id):
                        if successor not in pending:
                            pending.add(successor)
                            heapq.heappush(work, successor)

        def _horizon() -> int:
            while asap_heap:
                value, node_id = asap_heap[0]
                if node_id in unscheduled and asap[node_id] == -value:
                    return -value
                heapq.heappop(asap_heap)
            return 0

        def _ordered_frontier() -> List[int]:
            """Frontier sorted critical-path-first: by (slack, node id),
            matching the reference engine's stable sort of the
            insertion-ordered frontier by slack.  Rounds that scheduled
            nothing (SWAP insertion, force-map transitions) reuse the
            cached ordering — the unscheduled set did not change."""
            nonlocal slack_cache_valid, cached_frontier, slack
            nonlocal recomputes, avoided
            if slack_cache_valid:
                avoided += 1
                return cached_frontier
            recomputes += 1
            _drain_dirty()
            horizon = _horizon()
            slack = {
                n: horizon - depth_below[n] - asap[n] for n in frontier_set
            }
            cached_frontier = sorted(
                frontier_set, key=lambda n: (slack[n], n)
            )
            slack_cache_valid = True
            return cached_frontier

        def _mark_scheduled(node_id: int) -> None:
            nonlocal slack_cache_valid
            unscheduled.discard(node_id)
            frontier_set.discard(node_id)
            slack_cache_valid = False
            for successor in dag.successors(node_id):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    frontier_set.add(successor)
                dirty.add(successor)
            instruction = dag.nodes[node_id].instruction
            if instruction is None:
                return
            for q in instruction.qubits:
                remaining_gates[q] -= 1
                last_op[q] = instruction
            # targeted reclaim: only this instruction's qubits can have
            # just finished (a qubit is never mapped after its last gate)
            for q in instruction.qubits:
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
            for node_id in nodes_by_qubit[logical]:
                if node_id not in unscheduled:
                    continue
                instruction = dag.nodes[node_id].instruction
                for other in instruction.qubits:
                    if other != logical and layout.is_mapped(other):
                        partners.append(layout.physical(other))
            return partners

        def _finishing_soon(occupant: int) -> bool:
            """Occupant is in its 1Q/measure tail: the wire frees shortly."""
            if remaining_gates[occupant] > 3:
                return False
            return all(
                len(dag.nodes[n].instruction.qubits) == 1
                for n in nodes_by_qubit[occupant]
                if n in unscheduled
            )

        def _map_first(logical: int) -> bool:
            nonlocal candidates_scored
            free = layout.free_physical()
            if not free:
                return False  # pool exhausted; retry after wires are freed
            partners = _future_partners(logical)
            free_arr = np.asarray(free, dtype=np.int64)
            # wait for an imminently-freed wire next to a mapped partner
            # rather than settling for a distant placement (paper Fig. 5)
            if partners and not force_map and wait_budget[logical] > 0:
                best_free = distance[np.ix_(partners, free)].min()
                if best_free > 1:
                    for partner_physical in partners:
                        for neighbor in coupling.neighbors(partner_physical):
                            occupant = layout.logical(neighbor)
                            if occupant is not None and _finishing_soon(occupant):
                                wait_budget[logical] -= 1
                                return False

            # vectorised version of the scalar score tuple
            # (partner_cost, off_hint, -free_degree, readout, physical):
            # np.lexsort's primary key comes last, and the unique physical
            # index makes the order total, so the selected qubit is exactly
            # the tuple-minimising one
            if partners:
                partner_cost = distance[np.ix_(free, partners)].sum(axis=1)
            else:
                partner_cost = np.zeros(len(free), dtype=np.int64)
            unoccupied = np.zeros(num_physical, dtype=bool)
            unoccupied[free_arr] = True
            free_degree = (adjacency[free_arr] & unoccupied).sum(axis=1)
            hint = hints.get(logical)
            if hint is None:
                off_hint = np.ones(len(free), dtype=np.int64)
            else:
                off_hint = (free_arr != hint).astype(np.int64)
            if self.noise_aware:
                readout = readout_error[free_arr]
            else:
                readout = np.zeros(len(free), dtype=np.float64)
            candidates_scored += len(free)
            order = np.lexsort(
                (free_arr, readout, -free_degree, off_hint, partner_cost)
            )
            physical = int(free_arr[order[0]])
            _prepare_wire(physical)
            layout.assign(logical, physical)
            return True

        def _map_second(logical: int, partner_physical: int) -> bool:
            nonlocal candidates_scored
            free = layout.free_physical()
            if not free:
                return False  # pool exhausted; retry after wires are freed
            free_arr = np.asarray(free, dtype=np.int64)
            hops = distance[partner_physical, free_arr]
            # Prefer *waiting* over a distant placement when a neighbour of
            # the partner is about to be released — the released wire is a
            # SWAP-free reuse spot (the crux of SR-CaQR, paper Fig. 5).
            if not force_map and wait_budget[logical] > 0:
                if hops.min() > 1:
                    for neighbor in coupling.neighbors(partner_physical):
                        occupant = layout.logical(neighbor)
                        if occupant is not None and _finishing_soon(occupant):
                            wait_budget[logical] -= 1
                            return False

            # vectorised (hops, off_hint, readout + link, physical)
            if self.noise_aware:
                quality = readout_error[free_arr] + link_error[
                    partner_physical, free_arr
                ]
            else:
                quality = np.zeros(len(free), dtype=np.float64)
            hint = hints.get(logical)
            if hint is None:
                off_hint = np.ones(len(free), dtype=np.int64)
            else:
                off_hint = (free_arr != hint).astype(np.int64)
            candidates_scored += len(free)
            order = np.lexsort((free_arr, quality, off_hint, hops))
            physical = int(free_arr[order[0]])
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
            nonlocal swap_count, candidates_scored
            ahead = _lookahead_gates(blocked)
            candidates: Set[Tuple[int, int]] = set()
            for node_id in blocked:
                for q in dag.nodes[node_id].instruction.qubits:
                    physical = layout.physical(q)
                    for neighbor in coupling.neighbors(physical):
                        candidates.add(tuple(sorted((physical, neighbor))))
            if len(candidates) > 1:
                candidates.discard(last_swap[0])  # don't undo the last swap
            if not candidates:
                raise ReuseError("no SWAP candidates for blocked gates")

            cand_list = list(candidates)
            cand = np.array(cand_list, dtype=np.int64)
            a_col = cand[:, 0][:, None]
            b_col = cand[:, 1][:, None]

            def _cost_sums(gates: List[int]) -> np.ndarray:
                pairs = np.array(
                    [
                        [
                            layout.physical(q)
                            for q in dag.nodes[g].instruction.qubits
                        ]
                        for g in gates
                    ],
                    dtype=np.int64,
                )
                pa = pairs[:, 0][None, :]
                pb = pairs[:, 1][None, :]
                pa = np.where(pa == a_col, b_col, np.where(pa == b_col, a_col, pa))
                pb = np.where(pb == a_col, b_col, np.where(pb == b_col, a_col, pb))
                # cumulative (left-to-right) sums replicate the reference
                # engine's sequential float additions bit for bit —
                # np.sum's pairwise reduction would round differently
                return np.cumsum(error_distance[pa, pb], axis=1)[:, -1]

            scores = _cost_sums(blocked) / len(blocked)
            if ahead:
                scores = scores + 0.5 * _cost_sums(ahead) / len(ahead)
            candidates_scored += len(cand_list)
            best_index = min(
                range(len(cand_list)),
                key=lambda i: (scores[i], cand_list[i]),
            )
            a, b = cand_list[best_index]
            out.swap(a, b)
            ever_used.update((a, b))
            layout.swap_physical(a, b)
            wire_state[a], wire_state[b] = wire_state[b], wire_state[a]
            last_swap[0] = (a, b)
            swap_count += 1

        # -- main loop -----------------------------------------------------------------

        while unscheduled:
            frontier = _ordered_frontier()
            round_slack = slack
            scheduled_any = False
            mapping_starved = False
            blocked: List[int] = []
            # critical gates first so they grab free wires before delayable
            # ones (and wires reclaimed mid-round serve later gates)
            for node_id in frontier:
                instruction = dag.nodes[node_id].instruction
                if instruction is None or instruction.is_directive():
                    _mark_scheduled(node_id)
                    scheduled_any = True
                    continue
                fully_mapped = all(layout.is_mapped(q) for q in instruction.qubits)
                if not fully_mapped:
                    if round_slack.get(node_id, 0) > 0 and not force_map:
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

        stats.count("slack_recomputes", recomputes)
        stats.count("slack_recomputes_avoided", avoided)
        stats.count("slack_node_updates", node_updates)
        stats.count("swap_candidates_scored", candidates_scored)
        stats.count("swaps_inserted", swap_count)
        return SRCaQRResult(
            circuit=out,
            swap_count=swap_count,
            reuse_count=reuse_count,
            qubits_used=len(ever_used),
            depth=out.depth(),
            duration_dt=circuit_duration_dt(out, self.backend.calibration),
        )

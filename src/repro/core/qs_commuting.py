"""QS-CaQR for commuting-gate applications (QAOA) — paper Section 3.2.2.

For circuits whose cost layer commutes (all ``RZZ`` gates of a QAOA round),
gate order is free, so:

* the **minimum qubit count** is the chromatic number of the problem
  graph's qubit interaction graph (graph coloring bound, Fig. 10);
* candidate pairs need only Condition 1 (no shared gate) plus acyclicity of
  the *imposed* dependence graph built from the chosen reuse pairs;
* each candidate pair set is evaluated by the paper's three-step
  maximum-weight-matching scheduler: gates whose dependencies are resolved
  form the frontier, edges feeding reuse measurements get a larger weight,
  and a maximum-weight matching picks one parallel layer per round.

Two matching engines are available: Edmonds' blossom algorithm (optimal,
what the paper uses) and a greedy maximal matching (the faster variant the
paper's Section 3.4 proposes as future work).  The driver picks greedy
automatically for large graphs; ``benchmarks/bench_ablation_matching.py``
quantifies the difference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.core.conditions import ReusePair
from repro.exceptions import ReuseError
from repro.stats import Stats
from repro.transpiler.scheduling import circuit_duration_dt
from repro.workloads.qaoa import QAOA_DEFAULT_BETA, QAOA_DEFAULT_GAMMA

__all__ = [
    "minimum_qubits_by_coloring",
    "schedule_commuting",
    "CommutingSchedule",
    "materialize_commuting",
    "QSCommutingResult",
    "QSCaQRCommuting",
]

# weight given to frontier gates that feed a pending reuse measurement
# (paper: "assign larger weights to those gates as a parameter ... > 1")
REUSE_GATE_WEIGHT = 4

# above this edge count the driver switches from blossom to greedy matching
GREEDY_MATCHING_THRESHOLD = 120

# below this many (candidates x graph edges) the per-candidate scheduler
# runs stay in-process: pool startup dwarfs the work for small graphs
COMMUTING_PARALLEL_THRESHOLD = 20_000


def minimum_qubits_by_coloring(graph: nx.Graph) -> int:
    """Chromatic upper bound via DSATUR greedy coloring (paper Fig. 10).

    Qubits sharing a color never share a gate, so one physical wire can
    serve them all sequentially: the color count is the minimum achievable
    qubit usage for a commuting circuit.
    """
    if graph.number_of_nodes() == 0:
        return 0
    coloring = nx.algorithms.coloring.greedy_color(graph, strategy="DSATUR")
    return max(coloring.values()) + 1


@dataclass
class CommutingSchedule:
    """Output of the matching scheduler.

    Attributes:
        layers: gate layers; each layer is a list of problem-graph edges
            executed in parallel.
        measure_after_layer: for each reuse pair, the layer index after
            which its measure-and-reset fires (-1 = before any layer).
    """

    layers: List[List[Tuple[int, int]]]
    measure_after_layer: Dict[ReusePair, int]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _greedy_matching(graph: nx.Graph) -> Set[Tuple[int, int]]:
    """Weight-greedy maximal matching: sort by weight, take disjoint edges."""
    taken: Set[int] = set()
    matching: Set[Tuple[int, int]] = set()
    edges = sorted(
        graph.edges(data="weight", default=1),
        key=lambda item: (-item[2], item[0], item[1]),
    )
    for a, b, _weight in edges:
        if a in taken or b in taken:
            continue
        taken.add(a)
        taken.add(b)
        matching.add((a, b))
    return matching


def schedule_commuting(
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

    Args:
        matching: ``"blossom"`` (optimal max-weight), ``"greedy"`` (fast
            maximal), or ``"auto"`` (greedy above
            :data:`GREEDY_MATCHING_THRESHOLD` edges).

    Raises:
        ReuseError: when the pair set is cyclic (the schedule stalls) or a
            pair violates Condition 1.
    """
    if matching == "auto":
        matching = (
            "greedy" if graph.number_of_edges() > GREEDY_MATCHING_THRESHOLD else "blossom"
        )
    if matching not in ("blossom", "greedy"):
        raise ReuseError(f"unknown matching method {matching!r}")

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
        if matching == "blossom":
            matched = nx.max_weight_matching(subgraph, maxcardinality=True)
        else:
            matched = _greedy_matching(subgraph)
        layer = sorted(_edge_key(a, b) for a, b in matched)
        if not layer:
            raise ReuseError("matching produced an empty layer")
        layers.append(layer)
        for g in layer:
            remaining.discard(g)
            for pair in feeds[g]:
                pending_source_gates[pair] -= 1
        _fire_ready(len(layers) - 1)
    return CommutingSchedule(layers, measure_after_layer)


def _extension_cost_worker(payload):
    """Process-pool entry point: cost of one chunk of candidate extensions.

    Returns ``None`` for candidates whose pair set stalls the scheduler
    (the commuting analogue of a Condition-2 cycle).
    """
    graph, pairs, candidates, matching = payload
    costs: List[Optional[int]] = []
    for candidate in candidates:
        trial = pairs + [candidate]
        try:
            schedule = schedule_commuting(graph, trial, matching=matching)
        except ReuseError:
            costs.append(None)
            continue
        costs.append(schedule_depth_estimate(schedule, trial))
    return costs


def schedule_depth_estimate(
    schedule: CommutingSchedule, pairs: Sequence[ReusePair]
) -> int:
    """Cheap depth proxy used to rank candidate pairs without materialising.

    Gate layers contribute one level each; every reuse on a wire adds the
    measure/reset block (~3 levels) to that wire, so the longest reuse
    chain is weighted in.
    """
    parent = {pair.target: pair.source for pair in pairs}

    def _depth(q: int) -> int:
        # chains may be cyclic when degree-0 qubits are involved (their
        # measure fires immediately, so a "loop" of seats is schedulable);
        # stop at revisits
        depth = 0
        seen = set()
        while q in parent and q not in seen:
            seen.add(q)
            depth += 1
            q = parent[q]
        return depth

    longest_chain = max((_depth(pair.target) for pair in pairs), default=0)
    return schedule.num_layers + 3 * longest_chain


def _wire_assignment(
    num_qubits: int, pairs: Sequence[ReusePair]
) -> Tuple[Dict[int, int], int]:
    """Merge reuse chains onto shared wires; return qubit->wire and width."""
    parent = list(range(num_qubits))

    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for pair in pairs:
        parent[find(pair.target)] = find(pair.source)
    roots = sorted({find(q) for q in range(num_qubits)})
    root_index = {root: i for i, root in enumerate(roots)}
    return {q: root_index[find(q)] for q in range(num_qubits)}, len(roots)


def materialize_commuting(
    graph: nx.Graph,
    pairs: Sequence[ReusePair],
    schedule: Optional[CommutingSchedule] = None,
    gamma: float = QAOA_DEFAULT_GAMMA,
    beta: float = QAOA_DEFAULT_BETA,
    reset_style: str = "cif",
    matching: str = "auto",
    edge_angles: Optional[Dict[Tuple[int, int], float]] = None,
    mixer_angles: Optional[Dict[int, float]] = None,
) -> QuantumCircuit:
    """Build the transformed QAOA circuit for a pair set (paper Fig. 10/11).

    Per logical qubit the emitted sequence is ``H``, its cost gates (in
    schedule order), ``RX`` mixer, measurement — with the reuse pairs'
    measure + conditional-X splicing the next logical qubit onto the same
    wire.  Classical bit ``q`` always holds logical qubit ``q``'s outcome.

    Args:
        edge_angles: per-edge rzz angle overriding ``2 * gamma`` (used
            when the circuit was extracted from a heterogeneous source).
        mixer_angles: per-qubit rx angle overriding ``2 * beta``.
    """
    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ReuseError("graph vertices must be 0..n-1")
    if schedule is None:
        schedule = schedule_commuting(graph, pairs, matching=matching)
    wire_of, width = _wire_assignment(n, pairs)
    circuit = QuantumCircuit(width, n, name=f"qaoa_reuse_{n}")

    started: Set[int] = set()
    finished: Set[int] = set()

    def _start(q: int) -> None:
        if q not in started:
            circuit.h(wire_of[q])
            started.add(q)

    def _finish(q: int, reset: bool) -> None:
        if q in finished:
            return
        _start(q)  # degree-0 qubits may finish before any gate
        mixer = (
            mixer_angles[q] if mixer_angles is not None else 2.0 * beta
        )
        circuit.rx(mixer, wire_of[q])
        circuit.measure(wire_of[q], q)
        if reset:
            if reset_style == "cif":
                circuit.x(wire_of[q]).c_if(q, 1)
            else:
                circuit.reset(wire_of[q])
        finished.add(q)

    fire_map: Dict[int, List[ReusePair]] = {}
    for pair, layer_index in schedule.measure_after_layer.items():
        fire_map.setdefault(layer_index, []).append(pair)

    for pair in sorted(fire_map.get(-1, []), key=lambda p: p.source):
        _finish(pair.source, reset=True)
    for layer_index, layer in enumerate(schedule.layers):
        for a, b in layer:
            _start(a)
            _start(b)
            angle = (
                edge_angles[(a, b)] if edge_angles is not None else 2.0 * gamma
            )
            circuit.rzz(angle, wire_of[a], wire_of[b])
        for pair in sorted(fire_map.get(layer_index, []), key=lambda p: p.source):
            _finish(pair.source, reset=True)
    for q in range(n):
        if q not in finished:
            _finish(q, reset=False)
    return circuit


@dataclass
class QSCommutingResult:
    """One point of the commuting sweep."""

    circuit: QuantumCircuit
    qubits: int
    depth: int
    duration_dt: int
    pairs: List[ReusePair] = field(default_factory=list)
    schedule: Optional[CommutingSchedule] = None
    feasible: bool = True


class QSCaQRCommuting:
    """Qubit-saving CaQR for commuting-gate (QAOA-style) applications.

    Args:
        graph: the QAOA problem graph (vertices ``0..n-1``).
        gamma / beta: cost and mixer angles (single round).
        reset_style: reuse reset idiom (``"cif"`` or ``"builtin"``).
        matching: scheduler matching engine (``"auto"``, ``"blossom"``,
            ``"greedy"``).
        max_candidates: cap on (source, target) candidates examined per
            greedy step; low-degree qubits are preferred since they finish
            earliest (the paper's power-law observation).
        parallel: fan per-candidate scheduler runs out to a process pool
            when the step workload (candidates × edges) is large enough.
        parallel_threshold: workload floor before fanning out (default
            :data:`COMMUTING_PARALLEL_THRESHOLD`).
        max_workers: pool size (default ``os.cpu_count()`` capped at 8).
        stats: :class:`~repro.stats.Stats` sink (one is
            created when omitted).
    """

    def __init__(
        self,
        graph: nx.Graph,
        gamma: float = QAOA_DEFAULT_GAMMA,
        beta: float = QAOA_DEFAULT_BETA,
        reset_style: str = "cif",
        matching: str = "auto",
        max_candidates: int = 64,
        candidate_evaluation: str = "schedule",
        edge_angles: Optional[Dict[Tuple[int, int], float]] = None,
        mixer_angles: Optional[Dict[int, float]] = None,
        parallel: bool = True,
        parallel_threshold: Optional[int] = None,
        max_workers: Optional[int] = None,
        stats=None,
    ):
        n = graph.number_of_nodes()
        if set(graph.nodes) != set(range(n)):
            raise ReuseError("graph vertices must be 0..n-1")
        if candidate_evaluation not in ("schedule", "degree"):
            raise ReuseError(
                f"unknown candidate evaluation {candidate_evaluation!r}"
            )
        self.graph = graph
        self.gamma = gamma
        self.beta = beta
        self.reset_style = reset_style
        self.matching = matching
        self.max_candidates = max_candidates
        # "schedule" runs the matching scheduler per candidate (the paper's
        # evaluation); "degree" ranks by vertex degree and schedules only
        # the chosen pair — O(n) per step, for the 64/128-qubit sweeps
        self.candidate_evaluation = candidate_evaluation
        # optional heterogeneous angles (from extract_commuting_structure)
        self.edge_angles = edge_angles
        self.mixer_angles = mixer_angles
        self.n = n
        self.parallel = parallel
        self.parallel_threshold = (
            parallel_threshold
            if parallel_threshold is not None
            else COMMUTING_PARALLEL_THRESHOLD
        )
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        self.stats = stats if stats is not None else Stats()
        self._executor = None

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down the candidate-scoring process pool, if one started."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "QSCaQRCommuting":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    # -- helpers -----------------------------------------------------------------

    def minimum_qubits(self) -> int:
        """Graph-coloring bound on achievable qubit usage."""
        return minimum_qubits_by_coloring(self.graph)

    def _materialize(self, pairs: Sequence[ReusePair]) -> QSCommutingResult:
        schedule = schedule_commuting(self.graph, pairs, matching=self.matching)
        circuit = materialize_commuting(
            self.graph,
            pairs,
            schedule,
            gamma=self.gamma,
            beta=self.beta,
            reset_style=self.reset_style,
            edge_angles=self.edge_angles,
            mixer_angles=self.mixer_angles,
        )
        return QSCommutingResult(
            circuit=circuit,
            qubits=circuit.num_qubits,
            depth=circuit.depth(),
            duration_dt=circuit_duration_dt(circuit),
            pairs=list(pairs),
            schedule=schedule,
        )

    def _chain_blocks(self, pairs: List[ReusePair], candidate: ReusePair) -> bool:
        """True when *candidate* would break a wire-chain invariant.

        Merging the candidate's two chains onto one wire requires
        **transitive Condition 1**: no edge may exist between any qubit of
        the source's chain and any of the target's chain (two qubits on
        one wire can never share a gate).  The same walk also rejects
        chain cycles (same component) — a loop of seats wastes both
        qubits' roles without saving a wire.
        """
        component: Dict[int, int] = {}

        def find(q: int) -> int:
            root = q
            while component.get(root, root) != root:
                root = component[root]
            return root

        for pair in pairs:
            component[find(pair.target)] = find(pair.source)
        source_root = find(candidate.source)
        target_root = find(candidate.target)
        if source_root == target_root:
            return True  # cycle
        members: Dict[int, List[int]] = {}
        for q in range(self.n):
            members.setdefault(find(q), []).append(q)
        for a in members.get(source_root, [candidate.source]):
            for b in members.get(target_root, [candidate.target]):
                if self.graph.has_edge(a, b):
                    return True
        return False

    def _candidates(self, pairs: List[ReusePair]) -> List[ReusePair]:
        used_sources = {pair.source for pair in pairs}
        used_targets = {pair.target for pair in pairs}
        degree = dict(self.graph.degree())
        sources = sorted(
            (q for q in range(self.n) if q not in used_sources),
            key=lambda q: (degree.get(q, 0), q),
        )
        targets = sorted(
            (q for q in range(self.n) if q not in used_targets),
            key=lambda q: (degree.get(q, 0), q),
        )
        per_side = max(2, int(self.max_candidates**0.5) + 1)
        out: List[ReusePair] = []
        for source in sources[:per_side]:
            for target in targets[:per_side]:
                if source == target or self.graph.has_edge(source, target):
                    continue
                pair = ReusePair(source, target)
                if self._chain_blocks(pairs, pair):
                    continue
                out.append(pair)
                if len(out) >= self.max_candidates:
                    return out
        return out

    def _extension_costs(
        self, pairs: List[ReusePair], candidates: List[ReusePair]
    ) -> List[Optional[int]]:
        """Depth-estimate cost per candidate (None = infeasible/cyclic)."""
        self.stats.count("evaluations", len(candidates))
        workload = len(candidates) * max(1, self.graph.number_of_edges())
        if (
            self.parallel
            and len(candidates) >= 2 * self.max_workers
            and workload >= self.parallel_threshold
        ):
            self.stats.count("parallel_batches")
            chunk = max(1, -(-len(candidates) // self.max_workers))
            payloads = [
                (self.graph, list(pairs), candidates[i : i + chunk], self.matching)
                for i in range(0, len(candidates), chunk)
            ]
            costs: List[Optional[int]] = []
            for part in self._pool().map(_extension_cost_worker, payloads):
                costs.extend(part)
            return costs
        self.stats.count("serial_batches")
        return _extension_cost_worker(
            (self.graph, list(pairs), candidates, self.matching)
        )

    def _best_extension(
        self, pairs: List[ReusePair]
    ) -> Optional[Tuple[ReusePair, CommutingSchedule]]:
        if self.candidate_evaluation == "degree":
            return self._best_extension_by_degree(pairs)
        candidates = self._candidates(pairs)
        if not candidates:
            return None
        with self.stats.timed("score"):
            costs = self._extension_costs(pairs, candidates)
        best_index: Optional[int] = None
        for index, cost in enumerate(costs):
            if cost is None:
                continue
            if best_index is None or cost < costs[best_index]:
                best_index = index
        if best_index is None:
            return None
        winner = candidates[best_index]
        schedule = schedule_commuting(
            self.graph, pairs + [winner], matching=self.matching
        )
        return winner, schedule

    def _best_extension_by_degree(
        self, pairs: List[ReusePair]
    ) -> Optional[Tuple[ReusePair, CommutingSchedule]]:
        """Fast extension: low-degree qubits finish earliest and cost the
        least depth, so rank pairs by degree and take the first feasible
        one (feasibility still checked by running the scheduler once)."""
        for candidate in self._candidates(pairs):
            trial = pairs + [candidate]
            try:
                schedule = schedule_commuting(
                    self.graph, trial, matching=self.matching
                )
            except ReuseError:
                continue
            return candidate, schedule
        return None

    # -- public API -------------------------------------------------------------------

    def sweep(self, min_qubits: Optional[int] = None) -> List[QSCommutingResult]:
        """One result per achievable qubit count, original width downwards."""
        floor = max(min_qubits or 1, 1)
        points = [self._materialize([])]
        pairs: List[ReusePair] = []
        while points[-1].qubits > floor:
            extension = self._best_extension(pairs)
            if extension is None:
                break
            pairs.append(extension[0])
            self.stats.count("steps")
            points.append(self._materialize(pairs))
        return points

    def reduce_to(self, qubit_limit: int) -> QSCommutingResult:
        """Compile to at most *qubit_limit* qubits; ``feasible`` is the
        yes/no answer."""
        if qubit_limit < 1:
            raise ReuseError("qubit limit must be positive")
        pairs: List[ReusePair] = []
        current = self._materialize(pairs)
        while current.qubits > qubit_limit:
            extension = self._best_extension(pairs)
            if extension is None:
                current.feasible = False
                return current
            pairs.append(extension[0])
            self.stats.count("steps")
            current = self._materialize(pairs)
        return current

    # -- lifetime (deep-reuse) strategy ----------------------------------------

    def _materialize_lifetime(self, budget: int) -> QSCommutingResult:
        from repro.core.lifetime import lifetime_schedule

        pairs, schedule = lifetime_schedule(
            self.graph, budget, matching=self.matching
        )
        circuit = materialize_commuting(
            self.graph,
            pairs,
            schedule,
            gamma=self.gamma,
            beta=self.beta,
            reset_style=self.reset_style,
            edge_angles=self.edge_angles,
            mixer_angles=self.mixer_angles,
        )
        return QSCommutingResult(
            circuit=circuit,
            qubits=circuit.num_qubits,
            depth=circuit.depth(),
            duration_dt=circuit_duration_dt(circuit),
            pairs=list(pairs),
            schedule=schedule,
        )

    def lifetime_floor(self) -> int:
        """Smallest budget the lifetime scheduler can realise."""
        from repro.core.lifetime import lifetime_minimum_qubits

        return lifetime_minimum_qubits(self.graph, matching=self.matching)

    def lifetime_sweep(
        self, budgets: Optional[Sequence[int]] = None
    ) -> List[QSCommutingResult]:
        """Deep-reuse sweep via the event-driven lifetime scheduler.

        Reaches far smaller widths than the pair-greedy on large graphs
        (see :mod:`repro.core.lifetime`); one result per feasible budget,
        widest first.

        Args:
            budgets: explicit wire budgets to evaluate (defaults to every
                width from the graph size down to the lifetime floor).
        """
        if budgets is None:
            floor = self.lifetime_floor()
            budgets = range(self.n, floor - 1, -1)
        points: List[QSCommutingResult] = []
        for budget in budgets:
            try:
                point = self._materialize_lifetime(budget)
            except ReuseError:
                break
            # skip duplicate widths (budget > needed wires)
            if points and point.qubits >= points[-1].qubits:
                continue
            points.append(point)
        return points

    def reduce_to_lifetime(self, qubit_limit: int) -> QSCommutingResult:
        """Budgeted compile via the lifetime scheduler."""
        if qubit_limit < 1:
            raise ReuseError("qubit limit must be positive")
        try:
            return self._materialize_lifetime(qubit_limit)
        except ReuseError:
            point = self._materialize([])
            point.feasible = False
            return point

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

A sweep builds one :class:`CommutingProblem` and schedules every pair set
on it; a frontier that is already a matching is its own layer, with no
matching engine run, and a frontier already matched in the same greedy
step is looked up, not matched again.  A candidate's cost is its
schedule's layer count plus three levels per reuse on its longest
chain, and the greedy step takes the first candidate of least cost.
So candidates are scored against the best cost so far: since every
layer is a matching, no schedule has fewer layers than the graph's
maximum degree (the *degree floor*), and a candidate whose floor plus
chain term reaches the best is skipped; the others are scheduled under
a *layer budget* of the best minus their chain term and abandoned when
they reach it.  Only a candidate that beats the best gets a cost, and
that cost is exact, so the chosen candidate is the one full scoring
picks; the ``evaluations`` counter still counts every candidate offered.

Two matching engines are available: Edmonds' blossom algorithm (optimal,
what the paper uses) and a greedy maximal matching (the faster variant the
paper's Section 3.4 proposes as future work).  The driver picks greedy
automatically for large graphs; ``benchmarks/bench_ablation_matching.py``
quantifies the difference.
"""

from __future__ import annotations

import gc
import threading
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
    "resolve_matching",
    "matching_layer",
    "CommutingProblem",
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

_BLOSSOM_LOCK = threading.Lock()  # one blossom run pauses the collector


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


def resolve_matching(matching: str, graph: nx.Graph) -> str:
    """The matching engine a scheduler runs on *graph*: ``"auto"`` picks
    greedy above :data:`GREEDY_MATCHING_THRESHOLD` edges, blossom below.

    Raises:
        ReuseError: for a name other than ``"auto"``, ``"blossom"`` or
            ``"greedy"``.
    """
    if matching == "auto":
        return (
            "greedy" if graph.number_of_edges() > GREEDY_MATCHING_THRESHOLD else "blossom"
        )
    if matching not in ("blossom", "greedy"):
        raise ReuseError(f"unknown matching method {matching!r}")
    return matching


def matching_layer(
    edges: Sequence[Tuple[int, int, int]], matching: str
) -> List[Tuple[int, int]]:
    """One scheduling round: the *matching* (a resolved engine name) of
    the frontier *edges* ``(a, b, weight)``, as sorted ``(low, high)``
    gate keys.

    A frontier that is already a matching (no two edges share an
    endpoint) is matched whole by either engine, so it is returned
    without running one.  Otherwise the frontier graph is built by
    adding *edges* in order: its node and neighbour order, which break
    the engines' ties, follow the caller's edge order.
    """
    endpoints = {v for a, b, _ in edges for v in (a, b)}
    if len(endpoints) == 2 * len(edges):
        matched = [(a, b) for a, b, _ in edges]
    elif matching == "blossom":
        matched = _blossom(edges)
    else:
        frontier = nx.Graph()
        frontier.add_weighted_edges_from(edges)
        matched = _greedy_matching(frontier)
    return sorted(_edge_key(a, b) for a, b in matched)


def _blossom(edges: Sequence[Tuple[int, int, int]]) -> Set[Tuple[int, int]]:
    """networkx's max-weight matching of *edges*, the collector paused.

    Each run leaves its graph and two local classes in reference cycles
    (about 9 KB).  A collection during the run would promote them to wait
    for a full collection and raise a sweep's peak memory; paused, the
    next young collection frees them."""
    with _BLOSSOM_LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            frontier = nx.Graph()
            frontier.add_weighted_edges_from(edges)
            return nx.max_weight_matching(frontier, maxcardinality=True)
        finally:
            if enabled:
                gc.enable()


class CommutingProblem:
    """One commuting gate set, prepared once and scheduled many times.

    A QS sweep schedules the same graph under every candidate pair set;
    this holds what those runs share: the sorted gates as int ids, each
    qubit's gates and the degree floor.

    Attributes:
        gates: the graph's edges as sorted ``(low, high)`` keys; a gate's
            id is its index.
        floor: the most gates on one qubit.  Every layer is a matching,
            so no pair set schedules in fewer layers.
        scan_order: gate ids in the order each frontier is scanned, the
            iteration order of a ``set`` of gate tuples.  It breaks
            matching ties, so every commuting output depends on the
            interpreter's tuple hash and set layout
            (``tests/core/test_qs_commuting.py`` pins it).
        layer_memo: the step-scoped matching memo.  A layer is a pure
            function of its ordered frontier and the resolved engine, so
            :meth:`schedule` keys each frontier by its gate ids (a gate
            feeding a reuse measurement as ``~id``), stores the layer's
            gate ids, and runs the engine only on a miss.  Candidates of
            one greedy step share most frontiers, and the winner's
            re-schedule hits on every layer.  :class:`QSCaQRCommuting`
            clears it when a step starts, so it holds one step's
            frontiers; a problem-lifetime memo would grow the sweep's
            peak memory.
    """

    def __init__(
        self,
        graph: nx.Graph,
        matching: str = "auto",
        reuse_weight: int = REUSE_GATE_WEIGHT,
    ):
        self.matching = resolve_matching(matching, graph)
        self.reuse_weight = reuse_weight
        self.gates: List[Tuple[int, int]] = sorted(
            _edge_key(*edge) for edge in graph.edges
        )
        self.gate_id = {gate: i for i, gate in enumerate(self.gates)}
        # the frontier is scanned in the iteration order of ``set(gates)``,
        # the order the scheduler has always used: the matching engines
        # break ties by the frontier graph's insertion order
        self.scan_order = [self.gate_id[gate] for gate in set(self.gates)]
        self.gates_of: Dict[int, List[int]] = {q: [] for q in graph.nodes}
        for i, (a, b) in enumerate(self.gates):
            self.gates_of[a].append(i)
            if b != a:
                self.gates_of[b].append(i)
        self.floor = max((len(ids) for ids in self.gates_of.values()), default=0)
        self.layer_memo: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def schedule(
        self, pairs: Sequence[ReusePair], budget: Optional[int] = None
    ) -> Optional[CommutingSchedule]:
        """The paper's Step 1-3 scheduler for *pairs* (see
        :func:`schedule_commuting`), or ``None`` once the schedule reaches
        *budget* layers.

        Raises:
            ReuseError: when the pair set is cyclic (the schedule stalls) or
                a pair violates Condition 1.
        """
        gates_of = self.gates_of
        feeds: Dict[int, List[ReusePair]] = {}
        pending: Dict[ReusePair, int] = {}
        releases: Dict[ReusePair, List[int]] = {}
        blocked = [0] * len(self.gates)
        for pair in pairs:
            if _edge_key(pair.source, pair.target) in self.gate_id:
                raise ReuseError(f"{pair} violates Condition 1 (edge in graph)")
            source_gates = gates_of.get(pair.source, [])
            pending[pair] = len(source_gates)
            releases[pair] = target_gates = gates_of.get(pair.target, [])
            for g in source_gates:
                feeds.setdefault(g, []).append(pair)
            for g in target_gates:
                blocked[g] += 1

        done = [False] * len(self.gates)
        left = len(self.gates)
        layers: List[List[Tuple[int, int]]] = []
        measure_after_layer: Dict[ReusePair, int] = {}

        def _fire_ready(layer_index: int) -> None:
            # firing only unblocks gates, so one pass in pair order fires
            # every pair whose source gates are all scheduled
            for pair in pairs:
                if pair in measure_after_layer or pending[pair] > 0:
                    continue
                measure_after_layer[pair] = layer_index
                for g in releases[pair]:
                    blocked[g] -= 1

        _fire_ready(-1)
        gates, gate_id, weight = self.gates, self.gate_id, self.reuse_weight
        memo = self.layer_memo
        while left:
            ready = tuple(
                ~g if g in feeds else g
                for g in self.scan_order
                if not done[g] and not blocked[g]
            )
            if not ready:
                raise ReuseError("reuse pairs create a dependency cycle (stalled)")
            layer = memo.get(ready)
            if layer is None:
                frontier = [
                    (*gates[~g], weight) if g < 0 else (*gates[g], 1) for g in ready
                ]
                layer = memo[ready] = tuple(
                    gate_id[key] for key in matching_layer(frontier, self.matching)
                )
            if not layer:
                raise ReuseError("matching produced an empty layer")
            layers.append([gates[g] for g in layer])
            if budget is not None and len(layers) >= budget:
                return None
            for g in layer:
                done[g] = True
                for pair in feeds.get(g, ()):
                    pending[pair] -= 1
            left -= len(layer)
            _fire_ready(len(layers) - 1)
        return CommutingSchedule(layers, measure_after_layer)


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
    return CommutingProblem(graph, matching, reuse_weight).schedule(pairs)


def _chain_cost(pairs: Sequence[ReusePair]) -> int:
    """The reuse-chain term of a candidate's cost.

    A candidate pair set is ranked by a cheap depth proxy instead of a
    materialised circuit: its schedule's layer count plus this term.
    Every reuse on a wire adds the measure/reset block (~3 levels) to
    that wire, so the longest reuse chain is weighted in.
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

    return 3 * max((_depth(pair.target) for pair in pairs), default=0)


def _extension_cost_worker(
    problem: CommutingProblem,
    pairs: List[ReusePair],
    candidates: Sequence[ReusePair],
) -> List[Optional[int]]:
    """Cost of each candidate extension of *pairs*, scored against the
    best so far.

    Only the first candidate of least cost can win, so a candidate is
    scored exactly only while it can still beat the best: it is skipped
    when the degree floor plus its chain term already reaches the best,
    and its schedule is abandoned once its layers do.  Skipped,
    abandoned and stalled candidates cost ``None``.  The first-minimum
    index is the one full scoring gives.
    """
    costs: List[Optional[int]] = []
    best: Optional[int] = None
    for candidate in candidates:
        trial = pairs + [candidate]
        chain = _chain_cost(trial)
        schedule = None
        if best is None or problem.floor + chain < best:
            try:
                schedule = problem.schedule(
                    trial, budget=None if best is None else best - chain
                )
            except ReuseError:
                pass
        if schedule is not None:
            best = schedule.num_layers + chain
        costs.append(None if schedule is None else best)
    return costs


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
        self.matching = resolve_matching(matching, graph)
        self.max_candidates = max_candidates
        # "schedule" runs the matching scheduler per candidate (the paper's
        # evaluation); "degree" ranks by vertex degree and schedules only
        # the chosen pair — O(n) per step, for the 64/128-qubit sweeps
        self.candidate_evaluation = candidate_evaluation
        # optional heterogeneous angles (from extract_commuting_structure)
        self.edge_angles = edge_angles
        self.mixer_angles = mixer_angles
        self.n = n
        self.stats = stats if stats is not None else Stats()
        self.problem = CommutingProblem(graph, self.matching)

    # -- helpers -----------------------------------------------------------------

    def minimum_qubits(self) -> int:
        """Graph-coloring bound on achievable qubit usage."""
        return minimum_qubits_by_coloring(self.graph)

    def _materialize(
        self,
        pairs: Sequence[ReusePair],
        schedule: Optional[CommutingSchedule] = None,
    ) -> QSCommutingResult:
        if schedule is None:
            schedule = self.problem.schedule(pairs)
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
        return _extension_cost_worker(self.problem, list(pairs), candidates)

    def _best_extension(
        self, pairs: List[ReusePair]
    ) -> Optional[Tuple[ReusePair, CommutingSchedule]]:
        self.problem.layer_memo.clear()
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
        return winner, self.problem.schedule(pairs + [winner])

    def _best_extension_by_degree(
        self, pairs: List[ReusePair]
    ) -> Optional[Tuple[ReusePair, CommutingSchedule]]:
        """Fast extension: low-degree qubits finish earliest and cost the
        least depth, so rank pairs by degree and take the first feasible
        one (feasibility still checked by running the scheduler once)."""
        for candidate in self._candidates(pairs):
            trial = pairs + [candidate]
            try:
                schedule = self.problem.schedule(trial)
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
            points.append(self._materialize(pairs, extension[1]))
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
            current = self._materialize(pairs, extension[1])
        return current

    # -- lifetime (deep-reuse) strategy ----------------------------------------

    def _materialize_lifetime(self, budget: int) -> QSCommutingResult:
        from repro.core.lifetime import lifetime_schedule

        pairs, schedule = lifetime_schedule(
            self.graph, budget, matching=self.matching
        )
        return self._materialize(pairs, schedule)

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

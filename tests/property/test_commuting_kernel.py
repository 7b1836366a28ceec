"""Differential harness: the commuting-gate scheduler and scorer vs. their referees.

:class:`~repro.core.qs_commuting.CommutingProblem` prepares a problem
graph once per sweep and schedules every candidate pair set on it; the
candidate scorer bounds each schedule by the best cost so far.  The
referees (:func:`tests.oracles.reference_schedule_commuting` and
:func:`tests.oracles.reference_extension_costs`) rebuild everything per
pair set and schedule every candidate to its last layer.  This pins:

* ``CommutingProblem.schedule`` equals the referee on random graphs x
  random pair sets, under both matching engines: layers, firing layers
  and their order, the stall and Condition-1 errors, and the layer
  budget (``None`` exactly when the referee needs that many layers);
* the bounded scorer's first-minimum candidate (or "none feasible")
  equals the referee's at every greedy step of random sweeps and of the
  qaoa16-0.3 sweep; every cost it does report is exact, and it
  schedules exactly the candidates whose degree floor plus chain term is
  still below the best so far;
* the matching step returns what the networkx frontier graph gives,
  also on frontiers that are already a matching (returned without
  running an engine); a blossom run makes no reference cycles and
  leaves the collector's state alone;
* :func:`repro.core.matching.max_weight_matching` returns the matching
  ``nx.max_weight_matching(G, maxcardinality=True)`` does, edge for
  edge, on every frontier the qaoa16-0.3 compiles match (``max_reuse``
  and ``min_swap``) and on Hypothesis-drawn graphs (up to 16 nodes,
  weights 1/4 and 1..10);
* the step-scoped matching memo: the qaoa16-0.3 sweep's winners
  schedule as the referee does; every step starts with an empty memo;
  the winner's re-schedule runs no matching engine; and a caller that
  mutates a returned layer cannot change a later schedule.

``CAQR_COMMUTING_SAMPLES`` (default 100) scales the random-graph pool
and the Hypothesis examples per weight set; the nightly CI job runs 500.
"""

import gc
import os
import random
from typing import List, Optional, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.qs_commuting as qs_commuting
from repro.compile_api import caqr_compile, commuting_view
from repro.core.conditions import ReusePair
from repro.core.matching import max_weight_matching
from repro.core.qs_commuting import (
    CommutingProblem,
    QSCaQRCommuting,
    _edge_key,
    _extension_cost_worker,
    matching_layer,
)
from repro.hardware import ibm_mumbai
from repro.exceptions import ReuseError
from repro.workloads.registry import get_benchmark
from tests.oracles import (
    reference_extension_costs,
    reference_matching_layer,
    reference_schedule_commuting,
    reference_schedule_depth_estimate,
)

COMMUTING_SAMPLES = int(os.environ.get("CAQR_COMMUTING_SAMPLES", "100"))
ENGINES = ("blossom", "greedy")
PAIR_SETS = 6


def _sample_graph(seed: int) -> nx.Graph:
    return nx.gnp_random_graph(4 + seed % 9, 0.2 + 0.1 * (seed % 5), seed=seed)


def _sample_pairs(graph: nx.Graph, rng: random.Random) -> List[ReusePair]:
    """0-4 pairs, mostly Condition-1 clean; cycles and repeats allowed."""
    nodes = list(graph.nodes)
    pairs = []
    for _ in range(rng.randint(0, 4)):
        source, target = rng.sample(nodes, 2)
        if graph.has_edge(source, target) and rng.random() < 0.7:
            continue
        pairs.append(ReusePair(source, target))
    return pairs


def _outcome(schedule_fn, *args, **kwargs):
    try:
        schedule = schedule_fn(*args, **kwargs)
    except ReuseError as exc:
        return ("error", str(exc))
    if schedule is None:
        return None
    return (schedule.layers, list(schedule.measure_after_layer.items()))


def _first_min(costs: List[Optional[int]]) -> Optional[int]:
    best = None
    for index, cost in enumerate(costs):
        if cost is not None and (best is None or cost < costs[best]):
            best = index
    return best


# -- the scheduler ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(COMMUTING_SAMPLES))
def test_schedule_matches_reference(seed, engine):
    graph = _sample_graph(seed)
    rng = random.Random(seed)
    # one problem for every pair set, as in a sweep
    problem = CommutingProblem(graph, engine)
    for _ in range(PAIR_SETS):
        pairs = _sample_pairs(graph, rng)
        expected = _outcome(reference_schedule_commuting, graph, pairs, matching=engine)
        assert _outcome(problem.schedule, pairs) == expected, pairs
        if expected[0] == "error":
            assert _outcome(problem.schedule, pairs, budget=1) in (None, expected)
            continue
        num_layers = len(expected[0])
        if num_layers:
            assert problem.schedule(pairs, budget=num_layers) is None
        assert _outcome(problem.schedule, pairs, budget=num_layers + 1) == expected


def test_public_wrapper_matches_reference():
    graph = _sample_graph(7)
    pairs = [ReusePair(0, 5)]
    for engine in ENGINES + ("auto",):
        assert _outcome(
            qs_commuting.schedule_commuting, graph, pairs, matching=engine
        ) == _outcome(reference_schedule_commuting, graph, pairs, matching=engine)


def test_floor_is_the_max_degree():
    graph = _sample_graph(11)
    degree = max(d for _, d in graph.degree())
    assert CommutingProblem(graph).floor == degree
    assert CommutingProblem(nx.empty_graph(3)).floor == 0


# -- the matching step ------------------------------------------------------------


def _frontier_graph(edges) -> nx.Graph:
    frontier = nx.Graph()
    for a, b, weight in edges:
        frontier.add_edge(a, b, weight=weight)
    return frontier


@pytest.mark.parametrize("seed", range(0, COMMUTING_SAMPLES, 2))
def test_matching_layer_matches_networkx(seed):
    rng = random.Random(seed)
    nodes = list(range(4 + seed % 10))
    rng.shuffle(nodes)
    # a frontier that is already a matching, in random order and orientation
    disjoint = [
        (nodes[i], nodes[i + 1], rng.choice((1, 4)))
        for i in range(0, len(nodes) - 1, 2)
        if rng.random() < 0.8
    ]
    rng.shuffle(disjoint)
    blossom = nx.max_weight_matching(_frontier_graph(disjoint), maxcardinality=True)
    expected = sorted((min(a, b), max(a, b)) for a, b in blossom)
    for engine in ENGINES:
        assert matching_layer(disjoint, engine) == expected
    # any frontier: the layer the networkx frontier graph gives
    graph = _sample_graph(seed)
    edges = [(a, b, rng.choice((1, 4))) for a, b in graph.edges]
    rng.shuffle(edges)
    for engine in ENGINES:
        assert matching_layer(edges, engine) == reference_matching_layer(
            _frontier_graph(edges), engine
        )


def test_blossom_cycles_die_young():
    # this graph makes, augments through and expands (mid-stage and at
    # a stage's end) blossoms
    edges = [(a, b, 1 + (a + b) % 4) for a, b in _sample_graph(161).edges]
    expected = reference_matching_layer(_frontier_graph(edges), "blossom")
    was = gc.isenabled()
    gc.collect()
    # no collection runs during the matching, so any cycle it made is
    # still there for the check to find
    gc.disable()
    try:
        assert matching_layer(edges, "blossom") == expected
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_blossom_restores_the_collector(enabled):
    edges = [(0, 1, 1), (1, 2, 4), (2, 3, 1)]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert matching_layer(edges, "blossom") == [(0, 1), (2, 3)]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- the blossom matcher against networkx -----------------------------------------


def _networkx_matching(edges) -> List[Tuple[int, int]]:
    frontier = nx.Graph()
    frontier.add_weighted_edges_from(edges)
    return sorted(_edge_key(a, b) for a, b in nx.max_weight_matching(frontier, maxcardinality=True))


def _matching(edges) -> List[Tuple[int, int]]:
    return sorted(_edge_key(a, b) for a, b in max_weight_matching(edges))


@pytest.fixture(scope="module")
def qaoa16_frontiers():
    """Every frontier the blossom engine matches in the qaoa16-0.3
    compiles under ``max_reuse`` and ``min_swap``."""
    frontiers = []
    blossom = qs_commuting._blossom

    def spy(edges):
        frontiers.append(list(edges))
        return blossom(edges)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qs_commuting, "_blossom", spy)
        for mode in ("max_reuse", "min_swap"):
            caqr_compile(get_benchmark("qaoa16-0.3"), ibm_mumbai(), mode=mode, parallel=False)
    return frontiers


def test_matcher_matches_networkx_on_qaoa16_frontiers(qaoa16_frontiers):
    assert len(qaoa16_frontiers) > 100
    for edges in qaoa16_frontiers:
        assert _matching(edges) == _networkx_matching(edges), edges


@st.composite
def _weighted_graphs(draw, weights):
    """Up to 16 nodes, edges in random insertion order and orientation;
    repeats and self-loops allowed."""
    n = draw(st.integers(1, 16))
    node = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(node, node, st.sampled_from(weights)), max_size=3 * n))


@pytest.mark.parametrize("weights", [(1, 4), tuple(range(1, 11))], ids=["1-4", "1-10"])
def test_matcher_matches_networkx_on_random_graphs(weights):
    @settings(max_examples=COMMUTING_SAMPLES, deadline=None)
    @given(_weighted_graphs(weights))
    def check(edges):
        assert _matching(edges) == _networkx_matching(edges)

    check()


# -- the bounded scorer -----------------------------------------------------------


def _check_scores(engine: QSCaQRCommuting, pairs, candidates) -> None:
    """The bounded scorer against the referee on one greedy step."""
    graph, problem = engine.graph, engine.problem
    expected = reference_extension_costs(graph, pairs, candidates, engine.matching)
    scheduled = []
    schedule = problem.schedule

    def spy(trial, budget=None):
        scheduled.append(trial[-1])
        return schedule(trial, budget)

    problem.schedule = spy
    try:
        costs = _extension_cost_worker(problem, pairs, candidates)
    finally:
        del problem.schedule
    assert _first_min(costs) == _first_min(expected)
    for cost, exact in zip(costs, expected):
        assert cost is None or cost == exact
    # exactly the candidates that can still beat the best so far run
    best, should_run = None, []
    for candidate, exact in zip(candidates, expected):
        trial = pairs + [candidate]
        # the chain term: the estimate of a schedule with no layers
        chain = reference_schedule_depth_estimate(
            qs_commuting.CommutingSchedule([], {}), trial
        )
        if best is None or problem.floor + chain < best:
            should_run.append(candidate)
            if exact is not None and (best is None or exact < best):
                best = exact
    assert scheduled == should_run


def _check_sweep(engine: QSCaQRCommuting) -> List:
    """Sweep *engine* serially, checking the scorer at every step."""
    steps = []
    extension_costs = engine._extension_costs

    def checked(pairs, candidates):
        _check_scores(engine, list(pairs), candidates)
        steps.append(len(candidates))
        return extension_costs(pairs, candidates)

    engine._extension_costs = checked
    points = engine.sweep()
    assert steps, "the sweep scored no candidates"
    return points


@pytest.mark.parametrize("seed", range(0, COMMUTING_SAMPLES, 4))
def test_bounded_scorer_picks_the_reference_candidate(seed):
    graph = _sample_graph(seed)
    if graph.number_of_nodes() < 5:
        graph.add_nodes_from(range(graph.number_of_nodes(), 5))
    matching = ENGINES[seed % 2]
    _check_sweep(
        QSCaQRCommuting(graph, matching=matching, max_candidates=16)
    )


def test_bounded_scorer_on_the_qaoa16_sweep():
    graph = commuting_view(get_benchmark("qaoa16-0.3"))[0]
    _check_sweep(QSCaQRCommuting(graph))


def test_all_infeasible_candidates_score_none():
    graph = nx.path_graph(4)
    pairs = [ReusePair(0, 2)]
    candidates = [ReusePair(2, 0), ReusePair(0, 1)]  # a cycle, then Condition 1
    problem = CommutingProblem(graph)
    assert reference_extension_costs(graph, pairs, candidates, "blossom") == [None, None]
    assert _extension_cost_worker(problem, pairs, candidates) == [None, None]


# -- the step-scoped matching memo ------------------------------------------------


def _memo_sweep(engine: QSCaQRCommuting, monkeypatch):
    """Sweep *engine*, recording the memo size whenever a step's scorer
    receives the problem, and the matching-engine runs of each step's
    winner re-schedule."""
    memo_sizes, winner_runs = [], []
    engine_runs = [0]
    matching_layer_fn = qs_commuting.matching_layer
    scorer = qs_commuting._extension_cost_worker
    best_extension = engine._best_extension
    extension_costs = engine._extension_costs

    def counted_matching_layer(edges, matching):
        engine_runs[0] += 1
        return matching_layer_fn(edges, matching)

    def scorer_spy(problem, pairs, candidates):
        memo_sizes.append(len(problem.layer_memo))
        return scorer(problem, pairs, candidates)

    scored_at = [0]

    def costs_spy(pairs, candidates):
        costs = extension_costs(pairs, candidates)
        scored_at[0] = engine_runs[0]
        return costs

    def best_spy(pairs):
        extension = best_extension(pairs)
        if extension is not None:
            winner_runs.append(engine_runs[0] - scored_at[0])
        return extension

    monkeypatch.setattr(qs_commuting, "matching_layer", counted_matching_layer)
    monkeypatch.setattr(qs_commuting, "_extension_cost_worker", scorer_spy)
    engine._extension_costs = costs_spy
    engine._best_extension = best_spy
    return engine.sweep(), memo_sizes, winner_runs


def test_memo_sweep_winners_match_reference(monkeypatch):
    graph = commuting_view(get_benchmark("qaoa16-0.3"))[0]
    engine = QSCaQRCommuting(graph)
    points, memo_sizes, winner_runs = _memo_sweep(engine, monkeypatch)
    assert len(points) > 2
    assert memo_sizes and set(memo_sizes) == {0}
    # every step scored (the last may find no feasible candidate)
    assert len(memo_sizes) >= len(points) - 1
    # the scorer left every layer of the winner in the memo
    assert set(winner_runs) == {0}
    for point in points:
        expected = reference_schedule_commuting(
            graph, point.pairs, matching=engine.matching
        )
        assert point.schedule.layers == expected.layers, point.pairs
        assert point.schedule.measure_after_layer == expected.measure_after_layer


def test_degree_steps_start_with_an_empty_memo(monkeypatch):
    graph = commuting_view(get_benchmark("qaoa16-0.3"))[0]
    engine = QSCaQRCommuting(graph, candidate_evaluation="degree")
    sizes = []
    schedule = engine.problem.schedule

    def spy(pairs, budget=None):
        sizes.append(len(engine.problem.layer_memo))
        return schedule(pairs, budget)

    best_extension = engine._best_extension_by_degree

    def step(pairs):
        sizes.append("step")
        return best_extension(pairs)

    engine._best_extension_by_degree = step
    engine.problem.schedule = spy
    points = engine.sweep()
    assert len(points) > 2
    # the first schedule of every step sees the memo cleared
    firsts = [sizes[i + 1] for i, size in enumerate(sizes) if size == "step"]
    assert firsts and set(firsts) == {0}
    for point in points:
        expected = reference_schedule_commuting(
            graph, point.pairs, matching=engine.matching
        )
        assert point.schedule.layers == expected.layers


@pytest.mark.parametrize("engine", ENGINES)
def test_mutating_a_returned_layer_leaves_later_schedules(engine):
    graph = nx.random_regular_graph(3, 10, seed=4)
    pairs = [ReusePair(0, 9)] if not graph.has_edge(0, 9) else []
    problem = CommutingProblem(graph, engine)
    expected = _outcome(reference_schedule_commuting, graph, pairs, matching=engine)
    first = problem.schedule(pairs)
    assert problem.layer_memo
    for layer in first.layers:
        layer.reverse()
        layer.append((98, 99))
    first.layers.clear()
    assert _outcome(problem.schedule, pairs) == expected

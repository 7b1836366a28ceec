"""Event-driven lifetime scheduling for commuting circuits at a wire budget.

The pair-greedy of :mod:`repro.core.qs_commuting` evaluates one reuse pair
at a time — faithful to the paper's per-pair description, but the deep
reuse chains of Fig. 3 (64-qubit QAOA down to a handful of wires) need
thousands of coordinated decisions.  This module reaches those savings via
the equivalent *online* formulation:

* qubits are *born* (seated on a wire) in a precomputed order and *die*
  (measure + reset) once every gate touching them has been scheduled —
  which can only happen after all their neighbours are born, so the
  reuse validity conditions hold by construction;
* each round schedules a maximum(-weight) matching of gates between live
  qubits, exactly the paper's Step-3 scheduler;
* every seat on a previously-used wire is a reuse pair
  ``(previous occupant -> seated qubit)``.

The wire budget achievable this way is governed by the birth order: a
qubit is live from its birth until its last neighbour arrives, so the
minimum width equals the *vertex separation number* of the order.  The
default order comes from a greedy vertex-separation heuristic, which is
what lets power-law graphs (small separators) compress far more than
uniform random graphs (the paper's central Fig. 3 contrast).

The output is the exact pair list + witness schedule that
:func:`repro.core.qs_commuting.materialize_commuting` consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.conditions import ReusePair
from repro.core.qs_commuting import (
    CommutingSchedule,
    matching_layer,
    resolve_matching,
)
from repro.exceptions import ReuseError

__all__ = [
    "vertex_separation_order",
    "best_birth_order",
    "alive_profile",
    "lifetime_schedule",
    "lifetime_minimum_qubits",
]


def vertex_separation_order(graph: nx.Graph) -> List[int]:
    """Greedy birth order minimising the peak number of live qubits.

    At each step the vertex joining the prefix is chosen to minimise the
    resulting boundary (live) size, preferring vertices that retire the
    most currently-live vertices and introduce the fewest new neighbours.
    """
    n = graph.number_of_nodes()
    prefix: Set[int] = set()
    order: List[int] = []
    # outside-neighbour count per vertex, updated incrementally
    outside = {v: graph.degree(v) for v in graph.nodes}
    while len(order) < n:
        candidates = [v for v in graph.nodes if v not in prefix]

        def _score(v: int):
            # vertices this birth retires (their last outside neighbour is v)
            retired = sum(
                1
                for u in graph.neighbors(v)
                if u in prefix and outside[u] == 1
            )
            # live-set growth: v stays live iff it still has unborn
            # neighbours after joining the prefix
            new_outside = sum(1 for u in graph.neighbors(v) if u not in prefix)
            stays_live = 1 if new_outside > 0 else 0
            return (stays_live - retired, new_outside, graph.degree(v), v)

        best = min(candidates, key=_score)
        order.append(best)
        prefix.add(best)
        for u in graph.neighbors(best):
            outside[u] -= 1
    return order


def best_birth_order(graph: nx.Graph) -> List[int]:
    """The birth order with the smallest peak live count among heuristics.

    Candidates: the greedy vertex-separation order (wins on paths, trees,
    sparse graphs), descending degree (wins on hub-concentrated graphs —
    hubs live throughout, so they should be born first and leaves cycled
    through the remaining wires), and reverse-degeneracy (core first).
    """
    candidates = [vertex_separation_order(graph)]
    if graph.number_of_nodes():
        candidates.append(
            sorted(graph.nodes, key=lambda v: (-graph.degree(v), v))
        )
        core = nx.core_number(graph)
        candidates.append(
            sorted(graph.nodes, key=lambda v: (-core[v], -graph.degree(v), v))
        )
    return min(candidates, key=lambda order: max(alive_profile(graph, order), default=0))


def alive_profile(graph: nx.Graph, order: Sequence[int]) -> List[int]:
    """Number of live qubits after each birth in *order*.

    A qubit is live from its birth until its last neighbour is born
    (inclusive); isolated qubits live for exactly their own birth step.
    The maximum of this profile is the wire budget the order needs.
    """
    position = {v: i for i, v in enumerate(order)}
    # a vertex lives at least through its own birth step, even when all
    # its neighbours were born earlier
    death = {
        v: max(
            position[v],
            max((position[u] for u in graph.neighbors(v)), default=position[v]),
        )
        for v in order
    }
    profile: List[int] = []
    for i, _v in enumerate(order):
        live = sum(
            1 for u in order[: i + 1] if death[u] >= i and position[u] <= i
        )
        profile.append(live)
    return profile


def lifetime_schedule(
    graph: nx.Graph,
    num_wires: int,
    matching: str = "auto",
    reuse_weight: int = 4,
    order: Optional[Sequence[int]] = None,
) -> Tuple[List[ReusePair], CommutingSchedule]:
    """Schedule *graph*'s commuting gates on at most *num_wires* wires.

    Args:
        graph: problem graph with vertices ``0..n-1``.
        num_wires: wire budget.
        matching: per-round matching engine (as in ``schedule_commuting``).
        order: explicit birth order; defaults to the greedy
            vertex-separation order.

    Returns:
        ``(pairs, schedule)`` — the reuse pairs in firing order and the
        witness gate schedule.

    Raises:
        ReuseError: when the budget is infeasible for the given order.
    """
    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ReuseError("graph vertices must be 0..n-1")
    if num_wires < 1:
        raise ReuseError("need at least one wire")
    num_wires = min(num_wires, n)
    matching = resolve_matching(matching, graph)
    birth_order = list(order) if order is not None else best_birth_order(graph)
    if sorted(birth_order) != list(range(n)):
        raise ReuseError("order must be a permutation of the vertices")

    remaining: Dict[int, Set[int]] = {q: set(graph.neighbors(q)) for q in graph.nodes}
    active: Set[int] = set()
    finished: Set[int] = set()
    free_wires: List[Optional[int]] = [None] * num_wires  # None = fresh
    next_birth = 0
    pairs: List[ReusePair] = []
    layers: List[List[Tuple[int, int]]] = []
    measure_after: Dict[ReusePair, int] = {}

    def _seat_births() -> bool:
        nonlocal next_birth
        seated = False
        while next_birth < n and free_wires:
            qubit = birth_order[next_birth]
            occupant = free_wires.pop(0)
            active.add(qubit)
            if occupant is not None:
                pair = ReusePair(occupant, qubit)
                pairs.append(pair)
                measure_after[pair] = len(layers) - 1
            next_birth += 1
            seated = True
        return seated

    def _finish_ready() -> bool:
        done = [q for q in active if not remaining[q]]
        for q in done:
            active.discard(q)
            finished.add(q)
            free_wires.append(q)
        return bool(done)

    _seat_births()
    _finish_ready()
    _seat_births()

    while any(remaining[q] for q in graph.nodes):
        # each live gate once, in the orientation it is first met
        frontier = []
        met: Set[int] = set()
        for q in active:
            for other in remaining[q]:
                if other in active and other not in met:
                    endangered = (
                        len(remaining[q]) == 1 or len(remaining[other]) == 1
                    )
                    frontier.append((q, other, reuse_weight if endangered else 1))
            met.add(q)
        progressed = False
        if frontier:
            layer = matching_layer(frontier, matching)
            layers.append(layer)
            for a, b in layer:
                remaining[a].discard(b)
                remaining[b].discard(a)
            progressed = True
        if _finish_ready():
            progressed = True
        if _seat_births():
            progressed = True
        if not progressed:
            raise ReuseError(
                f"lifetime schedule deadlocked at {num_wires} wires "
                f"({n - next_birth} qubits still waiting to be born)"
            )
    # drain trailing births: gate-free qubits finish instantly, so keep
    # cycling finish/seat until quiescent (handles edgeless graphs at any
    # wire budget)
    while True:
        finished_any = _finish_ready()
        seated_any = _seat_births()
        if not (finished_any or seated_any):
            break
    if next_birth < n:
        raise ReuseError(
            f"lifetime schedule deadlocked at {num_wires} wires "
            f"({n - next_birth} isolated qubits could not be seated)"
        )
    return pairs, CommutingSchedule(layers, measure_after)


def lifetime_minimum_qubits(
    graph: nx.Graph,
    matching: str = "auto",
    order: Optional[Sequence[int]] = None,
) -> int:
    """Smallest feasible wire budget under the (given or default) order.

    The alive profile of the order is both a lower and an upper bound for
    this scheduler, so no search is needed; the result is verified by one
    scheduling run.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    birth_order = list(order) if order is not None else best_birth_order(graph)
    budget = max(alive_profile(graph, birth_order))
    lifetime_schedule(graph, budget, matching=matching, order=birth_order)
    return budget

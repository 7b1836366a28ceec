"""Tests for the event-driven lifetime scheduler (deep commuting reuse)."""

import networkx as nx
import pytest

from repro.core import (
    ReusePair,
    alive_profile,
    best_birth_order,
    lifetime_minimum_qubits,
    lifetime_schedule,
    materialize_commuting,
    vertex_separation_order,
)
from repro.core.qs_commuting import (
    GREEDY_MATCHING_THRESHOLD,
    QSCaQRCommuting,
    resolve_matching,
    schedule_commuting,
)
from repro.exceptions import ReuseError
from repro.sim import run_counts
from repro.workloads import power_law_graph, qaoa_maxcut_circuit, random_graph


def path_graph(n):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


def multi_star(hubs, leaves):
    """Every leaf attached to every hub; hubs interconnected."""
    graph = nx.Graph()
    n = hubs + leaves
    graph.add_nodes_from(range(n))
    for h in range(hubs):
        for other in range(h + 1, hubs):
            graph.add_edge(h, other)
        for leaf in range(hubs, n):
            graph.add_edge(h, leaf)
    return graph


class TestOrders:
    def test_vsep_order_is_permutation(self):
        graph = random_graph(12, 0.3, seed=1)
        order = vertex_separation_order(graph)
        assert sorted(order) == list(range(12))

    def test_path_alive_profile_is_constant_two(self):
        graph = path_graph(8)
        order = vertex_separation_order(graph)
        assert max(alive_profile(graph, order)) == 2

    def test_alive_profile_counts_birth_step(self):
        """A vertex born after all neighbours still occupies a wire."""
        graph = multi_star(2, 4)
        order = [0, 1] + list(range(2, 6))  # hubs first
        profile = alive_profile(graph, order)
        # after both hubs born, each leaf birth holds hubs + itself
        assert max(profile) == 3

    def test_best_order_beats_single_heuristics_on_multi_star(self):
        graph = multi_star(5, 30)
        order = best_birth_order(graph)
        assert max(alive_profile(graph, order)) <= 7


class TestLifetimeSchedule:
    def test_full_budget_means_no_pairs(self):
        graph = random_graph(8, 0.4, seed=2)
        pairs, schedule = lifetime_schedule(graph, 8)
        assert pairs == []
        total = sum(len(layer) for layer in schedule.layers)
        assert total == graph.number_of_edges()

    def test_all_gates_scheduled_with_reuse(self):
        graph = power_law_graph(16, 0.3, seed=3)
        floor = lifetime_minimum_qubits(graph)
        pairs, schedule = lifetime_schedule(graph, floor)
        total = sum(len(layer) for layer in schedule.layers)
        assert total == graph.number_of_edges()
        assert len(pairs) == 16 - floor

    def test_layers_are_matchings(self):
        graph = random_graph(10, 0.4, seed=4)
        _, schedule = lifetime_schedule(graph, 6)
        for layer in schedule.layers:
            qubits = [q for gate in layer for q in gate]
            assert len(qubits) == len(set(qubits))

    def test_infeasible_budget_raises(self):
        graph = nx.complete_graph(5)
        with pytest.raises(ReuseError):
            lifetime_schedule(graph, 3)

    def test_bad_order_rejected(self):
        graph = path_graph(4)
        with pytest.raises(ReuseError):
            lifetime_schedule(graph, 2, order=[0, 1, 2, 2])

    def test_path_reaches_two_wires(self):
        graph = path_graph(10)
        pairs, _ = lifetime_schedule(graph, 2)
        assert len(pairs) == 8

    def test_measure_fires_before_target_gates(self):
        graph = path_graph(6)
        pairs, schedule = lifetime_schedule(graph, 2)
        for pair in pairs:
            fire = schedule.measure_after_layer[pair]
            for layer_index, layer in enumerate(schedule.layers):
                if any(pair.target in gate for gate in layer):
                    assert layer_index > fire


class TestMatchingNames:
    """Both commuting schedulers resolve the matching engine one way."""

    def test_unknown_matching_rejected_by_both_schedulers(self):
        graph = path_graph(6)
        with pytest.raises(ReuseError, match="unknown matching method 'bogus'"):
            lifetime_schedule(graph, 3, matching="bogus")
        with pytest.raises(ReuseError, match="unknown matching method 'bogus'"):
            schedule_commuting(graph, [], matching="bogus")
        with pytest.raises(ReuseError, match="unknown matching method 'bogus'"):
            QSCaQRCommuting(graph, matching="bogus").lifetime_sweep()

    @pytest.mark.parametrize("edges", [20, 200])
    def test_auto_is_the_resolved_engine(self, edges):
        graph = nx.gnm_random_graph(30, edges, seed=7)
        engine = resolve_matching("auto", graph)
        assert engine == ("greedy" if edges > GREEDY_MATCHING_THRESHOLD else "blossom")
        budget = lifetime_minimum_qubits(graph)
        assert lifetime_schedule(graph, budget) == lifetime_schedule(
            graph, budget, matching=engine
        )
        assert schedule_commuting(graph, []) == schedule_commuting(
            graph, [], matching=engine
        )


class TestFloors:
    def test_multi_star_floor_is_hubs_plus_one(self):
        graph = multi_star(6, 40)
        floor = lifetime_minimum_qubits(graph)
        assert floor <= 8  # 6 hubs + leaf slot (+1 heuristic slack)

    def test_power_law_compresses_much_more_than_random(self):
        """The paper's Fig. 3 contrast at 64 qubits, density 0.30."""
        pl = power_law_graph(64, 0.3, seed=7)
        rnd = random_graph(64, 0.3, seed=7)
        pl_floor = lifetime_minimum_qubits(pl)
        rnd_floor = lifetime_minimum_qubits(rnd)
        assert pl_floor <= 16  # > 75% saving
        assert pl_floor < rnd_floor - 10

    def test_floor_schedule_is_feasible(self):
        graph = power_law_graph(32, 0.3, seed=8)
        floor = lifetime_minimum_qubits(graph)
        pairs, schedule = lifetime_schedule(graph, floor)
        circuit = materialize_commuting(graph, pairs, schedule)
        assert circuit.num_qubits == 32 - len(pairs) <= floor


class TestSemantics:
    def test_lifetime_circuit_matches_plain_qaoa(self):
        graph = path_graph(5)
        pairs, schedule = lifetime_schedule(graph, 2)
        reused = materialize_commuting(graph, pairs, schedule)
        assert reused.num_qubits == 2
        plain = qaoa_maxcut_circuit(graph)
        counts_plain = run_counts(plain, shots=6000, seed=9)
        counts_reused = run_counts(reused, shots=6000, seed=9)
        for key in set(counts_plain) | set(counts_reused):
            assert abs(
                counts_plain.get(key, 0) - counts_reused.get(key, 0)
            ) < 450

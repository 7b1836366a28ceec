"""Tests for QS-CaQR on commuting-gate circuits (paper Section 3.2.2)."""

import networkx as nx
import pytest

from repro.core import (
    QSCaQRCommuting,
    ReusePair,
    materialize_commuting,
    minimum_qubits_by_coloring,
    schedule_commuting,
)
from repro.core.qs_commuting import CommutingProblem
from repro.exceptions import ReuseError
from repro.sim import run_counts
from repro.workloads import power_law_graph, qaoa_maxcut_circuit, random_graph


def path_graph(n):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


def paper_fig10_graph():
    """5 vertices colorable with 3 colors: q0,q2,q4 white; q1 blue; q3 red."""
    graph = nx.Graph()
    graph.add_nodes_from(range(5))
    graph.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    return graph


class TestColoringBound:
    def test_fig10_needs_three_colors(self):
        assert minimum_qubits_by_coloring(paper_fig10_graph()) == 3

    def test_path_needs_two(self):
        assert minimum_qubits_by_coloring(path_graph(6)) == 2

    def test_complete_graph_no_saving(self):
        assert minimum_qubits_by_coloring(nx.complete_graph(4)) == 4

    def test_empty_graph(self):
        assert minimum_qubits_by_coloring(nx.Graph()) == 0


class TestScheduler:
    def test_no_pairs_schedules_all_gates(self):
        graph = path_graph(4)
        schedule = schedule_commuting(graph, [])
        scheduled = [g for layer in schedule.layers for g in layer]
        assert sorted(scheduled) == sorted(tuple(sorted(e)) for e in graph.edges)

    def test_layers_are_matchings(self):
        graph = random_graph(8, 0.4, seed=1)
        schedule = schedule_commuting(graph, [])
        for layer in schedule.layers:
            qubits = [q for gate in layer for q in gate]
            assert len(qubits) == len(set(qubits))

    def test_pair_measure_fires_after_source_gates(self):
        graph = path_graph(4)  # edges (0,1),(1,2),(2,3)
        pair = ReusePair(0, 2)
        schedule = schedule_commuting(graph, [pair])
        fire_layer = schedule.measure_after_layer[pair]
        # gate (0,1) must be scheduled at or before the firing layer
        seen = [g for layer in schedule.layers[: fire_layer + 1] for g in layer]
        assert (0, 1) in seen

    def test_condition1_violation_rejected(self):
        graph = path_graph(3)
        with pytest.raises(ReuseError):
            schedule_commuting(graph, [ReusePair(0, 1)])

    def test_cyclic_pairs_rejected(self):
        # (0<->2) both ways is a cycle
        graph = path_graph(3)
        with pytest.raises(ReuseError):
            schedule_commuting(graph, [ReusePair(0, 2), ReusePair(2, 0)])

    def test_greedy_and_blossom_both_complete(self):
        graph = random_graph(10, 0.4, seed=2)
        for method in ("blossom", "greedy"):
            schedule = schedule_commuting(graph, [], matching=method)
            total = sum(len(layer) for layer in schedule.layers)
            assert total == graph.number_of_edges()

    def test_unknown_matching_rejected(self):
        with pytest.raises(ReuseError):
            schedule_commuting(path_graph(3), [], matching="quantum")


class TestScanOrder:
    """The scheduler scans each frontier in the iteration order of a
    Python ``set`` of gate tuples, and that order breaks the matching
    engines' ties: it is part of every commuting output."""

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (nx.cycle_graph(6), [0, 2, 4, 3, 5, 1]),
            (nx.complete_graph(4), [0, 3, 2, 5, 1, 4]),
            (nx.petersen_graph(), [0, 8, 3, 1, 7, 6, 11, 9, 12, 10, 5, 14, 2, 4, 13]),
        ],
        ids=["cycle6", "k4", "petersen"],
    )
    def test_scan_order_is_pinned(self, graph, expected):
        assert CommutingProblem(graph).scan_order == expected, (
            "the interpreter's set layout for gate tuples changed: every "
            "QAOA compile output moves with it, and the goldens "
            "(tests/test_bench_outputs.py, tests/fixtures/lane_golden.json) "
            "must be re-recorded"
        )


class TestMaterialize:
    def test_no_pairs_matches_plain_qaoa_width(self):
        graph = path_graph(4)
        circuit = materialize_commuting(graph, [])
        assert circuit.num_qubits == 4
        ops = circuit.count_ops()
        assert ops["rzz"] == 3
        assert ops["h"] == 4
        assert ops["rx"] == 4
        assert ops["measure"] == 4

    def test_pair_shrinks_width_and_adds_reset(self):
        graph = path_graph(4)
        circuit = materialize_commuting(graph, [ReusePair(0, 2)])
        assert circuit.num_qubits == 3
        conditionals = [i for i in circuit.data if i.condition is not None]
        assert len(conditionals) == 1

    def test_clbits_track_logical_qubits(self):
        graph = path_graph(4)
        circuit = materialize_commuting(graph, [ReusePair(0, 2)])
        measures = [i for i in circuit.data if i.name == "measure"]
        assert sorted(i.clbits[0] for i in measures) == [0, 1, 2, 3]

    def test_semantics_match_unreused_qaoa(self):
        """Reuse must not change the QAOA output distribution."""
        graph = path_graph(4)
        gamma, beta = 0.8, 0.4
        plain = qaoa_maxcut_circuit(graph, gammas=[gamma], betas=[beta])
        reused = materialize_commuting(
            graph, [ReusePair(0, 2)], gamma=gamma, beta=beta
        )
        counts_plain = run_counts(plain, shots=6000, seed=5)
        counts_reused = run_counts(reused, shots=6000, seed=5)
        for key in set(counts_plain) | set(counts_reused):
            assert abs(counts_plain.get(key, 0) - counts_reused.get(key, 0)) < 400

    def test_chained_pairs(self):
        # path 0-1-2-3-4: chain 0 -> 2 -> 4 onto one wire
        graph = path_graph(5)
        circuit = materialize_commuting(
            graph, [ReusePair(0, 2), ReusePair(2, 4)]
        )
        assert circuit.num_qubits == 3


class TestDriver:
    def test_sweep_reaches_coloring_floor_on_path(self):
        graph = path_graph(6)
        compiler = QSCaQRCommuting(graph)
        points = compiler.sweep()
        assert points[0].qubits == 6
        assert points[-1].qubits <= 3  # chromatic bound is 2

    def test_reduce_to_feasible(self):
        graph = path_graph(6)
        result = QSCaQRCommuting(graph).reduce_to(4)
        assert result.feasible
        assert result.qubits == 4

    def test_reduce_to_infeasible(self):
        graph = nx.complete_graph(4)
        result = QSCaQRCommuting(graph).reduce_to(2)
        assert not result.feasible

    def test_depth_grows_as_qubits_shrink(self):
        graph = random_graph(10, 0.3, seed=3)
        points = QSCaQRCommuting(graph).sweep()
        assert points[-1].qubits < points[0].qubits
        assert points[-1].depth >= points[0].depth

    def test_power_law_saves_more_than_random(self):
        """The paper's Section 4.2.2 observation, at small scale."""
        n, density = 16, 0.3
        pl = QSCaQRCommuting(power_law_graph(n, density, seed=4)).sweep()
        rnd = QSCaQRCommuting(random_graph(n, density, seed=4)).sweep()
        assert pl[-1].qubits <= rnd[-1].qubits

    def test_semantics_at_each_sweep_point(self):
        graph = path_graph(4)
        compiler = QSCaQRCommuting(graph)
        points = compiler.sweep()
        reference = run_counts(points[0].circuit, shots=6000, seed=6)
        for point in points[1:]:
            counts = run_counts(point.circuit, shots=6000, seed=6)
            for key in set(reference) | set(counts):
                assert abs(reference.get(key, 0) - counts.get(key, 0)) < 450, (
                    f"distribution shifted at {point.qubits} qubits"
                )

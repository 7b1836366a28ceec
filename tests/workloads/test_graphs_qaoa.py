"""Tests for graph generators and QAOA circuit construction."""

import networkx as nx
import pytest

from repro.exceptions import WorkloadError
from repro.workloads import (
    benchmark_names,
    edge_count_for_density,
    get_benchmark,
    graph_density,
    load_qasm_benchmark,
    power_law_graph,
    qaoa_benchmark,
    qaoa_cost_edges,
    qaoa_maxcut_circuit,
    qasm_benchmark_names,
    random_graph,
)


class TestGraphGenerators:
    @pytest.mark.parametrize("n,density", [(16, 0.3), (32, 0.3), (20, 0.5)])
    def test_random_graph_density(self, n, density):
        graph = random_graph(n, density, seed=1)
        assert graph.number_of_nodes() == n
        assert graph.number_of_edges() == edge_count_for_density(n, density)

    @pytest.mark.parametrize("n,density", [(16, 0.3), (64, 0.3)])
    def test_power_law_density(self, n, density):
        graph = power_law_graph(n, density, seed=1)
        assert graph.number_of_edges() == edge_count_for_density(n, density)

    def test_power_law_heavier_tail_than_random(self):
        """The defining contrast the paper draws (Section 4.2.2)."""
        n, density = 64, 0.3
        pl = power_law_graph(n, density, seed=5)
        rnd = random_graph(n, density, seed=5)
        pl_max = max(dict(pl.degree()).values())
        rnd_max = max(dict(rnd.degree()).values())
        assert pl_max > rnd_max

    def test_reproducible(self):
        a = random_graph(20, 0.3, seed=9)
        b = random_graph(20, 0.3, seed=9)
        assert set(a.edges) == set(b.edges)

    def test_bad_density_rejected(self):
        with pytest.raises(WorkloadError):
            random_graph(10, 0.0)
        with pytest.raises(WorkloadError):
            random_graph(10, 1.5)


class TestQAOACircuit:
    def _triangle(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (0, 2)])
        return graph

    def test_structure_single_round(self):
        circuit = qaoa_maxcut_circuit(self._triangle())
        ops = circuit.count_ops()
        assert ops["h"] == 3
        assert ops["rzz"] == 3
        assert ops["rx"] == 3
        assert ops["measure"] == 3

    def test_multi_round(self):
        circuit = qaoa_maxcut_circuit(self._triangle(), gammas=[0.1, 0.2], betas=[0.3, 0.4])
        assert circuit.count_ops()["rzz"] == 6

    def test_angle_wiring(self):
        circuit = qaoa_maxcut_circuit(self._triangle(), gammas=[0.5], betas=[0.25])
        rzz = [i for i in circuit.data if i.name == "rzz"][0]
        rx = [i for i in circuit.data if i.name == "rx"][0]
        assert rzz.params[0] == pytest.approx(1.0)
        assert rx.params[0] == pytest.approx(0.5)

    def test_mismatched_angles_rejected(self):
        with pytest.raises(WorkloadError):
            qaoa_maxcut_circuit(self._triangle(), gammas=[0.1], betas=[0.1, 0.2])

    def test_bad_vertex_labels_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(WorkloadError):
            qaoa_maxcut_circuit(graph)

    def test_cost_edges_sorted(self):
        edges = qaoa_cost_edges(self._triangle())
        assert all(a < b for a, b in edges)


class TestRegistry:
    def test_regular_lookup(self):
        assert get_benchmark("bv_10").num_qubits == 10
        assert get_benchmark("xor_5").num_qubits == 5

    def test_qaoa_lookup(self):
        circuit = qaoa_benchmark("qaoa10-0.3")
        assert circuit.num_qubits == 10

    def test_qaoa_density_in_name(self):
        sparse = qaoa_benchmark("qaoa10-0.3")
        dense = qaoa_benchmark("qaoa10-0.5")
        assert dense.count_ops()["rzz"] > sparse.count_ops()["rzz"]

    def test_qasm_asset_lookup(self):
        assert not set(qasm_benchmark_names()) & set(benchmark_names())
        for name in qasm_benchmark_names():
            assert get_benchmark(name).data == load_qasm_benchmark(name).data

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            get_benchmark("frobnicate_9000")

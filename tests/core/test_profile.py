"""Tests for structural reuse profiling."""

import networkx as nx
import pytest

from repro.core.profile import profile_circuit, profile_graph
from repro.stats import Stats
from repro.workloads import bv_circuit, power_law_graph, random_graph


class TestProfileGraph:
    def test_star_profile(self):
        graph = nx.star_graph(9)  # hub 0 + 9 leaves
        profile = profile_graph(graph)
        assert profile.max_degree == 9
        assert profile.median_degree == 1
        assert profile.coloring_bound == 2
        assert profile.lifetime_floor <= 3
        assert profile.max_saving > 0.5

    def test_complete_graph_no_saving(self):
        profile = profile_graph(nx.complete_graph(5))
        assert profile.lifetime_floor == 5
        assert profile.max_saving == 0.0

    def test_power_law_more_hub_dominant_than_random(self):
        pl = profile_graph(power_law_graph(32, 0.3, seed=4))
        rnd = profile_graph(random_graph(32, 0.3, seed=4))
        assert pl.hub_dominance > rnd.hub_dominance
        assert pl.lifetime_floor < rnd.lifetime_floor

    def test_empty_graph(self):
        profile = profile_graph(nx.Graph())
        assert profile.num_qubits == 0
        assert profile.max_saving == 0.0

    def test_edgeless_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        profile = profile_graph(graph)
        assert profile.lifetime_floor == 1
        assert profile.max_saving == 0.75

    def test_summary_mentions_key_numbers(self):
        profile = profile_graph(nx.star_graph(5))
        text = profile.summary()
        assert "6 qubits" in text
        assert "Coloring bound 2" in text


class TestProfileCircuit:
    def test_bv_star_profile(self):
        profile = profile_circuit(bv_circuit(6))
        assert profile.num_qubits == 6
        assert profile.max_degree == 5  # the ancilla hub
        assert profile.lifetime_floor == 2

    def test_idle_wires_excluded(self):
        from repro.circuit import QuantumCircuit

        circuit = QuantumCircuit(6)
        circuit.cx(1, 4)
        profile = profile_circuit(circuit)
        assert profile.num_qubits == 2
        assert profile.num_edges == 1


class TestReuseEvalStats:
    def _stats(self):
        return Stats()

    def test_counters_accumulate(self):
        stats = self._stats()
        stats.count("evaluations")
        stats.count("evaluations", 4)
        stats.count("steps", 2)
        assert stats.counters == {"evaluations": 5, "steps": 2}

    def test_timed_context_accumulates(self):
        stats = self._stats()
        with stats.timed("score"):
            pass
        with stats.timed("score"):
            pass
        assert stats.timers["score"] >= 0.0
        assert len(stats.timers) == 1

    def test_timed_records_on_exception(self):
        stats = self._stats()
        with pytest.raises(ValueError):
            with stats.timed("apply"):
                raise ValueError("boom")
        assert "apply" in stats.timers

    def test_cache_hit_rate(self):
        stats = self._stats()
        assert stats.rate("cache_hits", "evaluations") == 0.0
        stats.count("evaluations", 3)
        stats.count("cache_hits", 1)
        assert stats.rate("cache_hits", "evaluations") == pytest.approx(0.25)

    def test_summary_mentions_everything(self):
        stats = self._stats()
        stats.count("evaluations", 2)
        stats.add_time("score", 0.25)
        text = stats.summary()
        assert "evaluations=2" in text
        assert "score_s=0.250" in text

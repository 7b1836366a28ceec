"""Tests for the top-level caqr_compile entry point."""

import networkx as nx
import pytest

import repro.sim.metrics as sim_metrics
from repro.compile_api import caqr_compile
from repro.exceptions import HardwareError, ReuseError
from repro.hardware import ibm_mumbai
from repro.service import CompileService, PortfolioCompileService
from repro.sim import run_counts
from repro.workloads import bv_circuit, random_graph


class TestESPStats:
    def test_calibration_error_drops_sim_stats(self, monkeypatch):
        report = caqr_compile(bv_circuit(4), backend=ibm_mumbai(), mode="min_swap")
        assert 0.0 < report.sim_stats.values["esp"] <= 1.0

        def unscorable(*args, **kwargs):
            raise HardwareError("no readout calibration for qubit 99")

        monkeypatch.setattr(sim_metrics, "estimated_success_probability", unscorable)
        report = caqr_compile(bv_circuit(4), backend=ibm_mumbai(), mode="min_swap")
        assert report.sim_stats is None

    def test_bug_inside_esp_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(sim_metrics, "estimated_success_probability", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            caqr_compile(bv_circuit(4), backend=ibm_mumbai(), mode="min_swap")


class TestRegularModes:
    def test_qubit_budget(self):
        report = caqr_compile(bv_circuit(6), mode="qubit_budget", qubit_limit=2)
        assert report.metrics.qubits_used == 2
        assert report.qubit_saving == pytest.approx(4 / 6)
        assert report.reuse_beneficial

    def test_qubit_budget_infeasible(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="qubit_budget", qubit_limit=1)

    def test_qubit_budget_needs_limit(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="qubit_budget")

    def test_max_reuse_logical(self):
        report = caqr_compile(bv_circuit(8), mode="max_reuse")
        assert report.metrics.qubits_used == 2
        assert report.baseline_metrics is None

    def test_min_depth_with_backend(self):
        backend = ibm_mumbai()
        report = caqr_compile(bv_circuit(6), backend=backend, mode="min_depth")
        assert report.baseline_metrics is not None
        assert report.metrics.depth <= report.baseline_metrics.depth

    def test_min_swap_requires_backend(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="min_swap")

    def test_min_swap_on_backend(self):
        backend = ibm_mumbai()
        report = caqr_compile(bv_circuit(8), backend=backend, mode="min_swap")
        assert report.metrics.swap_count <= report.baseline_metrics.swap_count

    def test_unknown_mode(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="teleport")

    @pytest.mark.parametrize("strategy", ["auto", "chain", "portfolio"])
    @pytest.mark.parametrize("graph", [False, True], ids=["circuit", "graph"])
    def test_unknown_reset_style_rejected(self, graph, strategy):
        """Checked up front for every target and strategy, and never cached."""
        target = nx.random_regular_graph(3, 8, seed=1) if graph else bv_circuit(5)
        rejected = "^unknown reset style 'bogus'$"
        if graph and strategy == "chain":
            rejected = "QuantumCircuit target"  # graphs never reach the chain engine
        service = CompileService()
        for cache in (None, service):
            with pytest.raises(ReuseError, match=rejected):
                caqr_compile(
                    target, mode="max_reuse", reset_style="bogus",
                    strategy=strategy, cache=cache,
                )
        assert service.stats.counters.get("stores", 0) == 0
        if strategy == "portfolio":
            with pytest.raises(ReuseError, match=rejected):
                PortfolioCompileService(max_workers=1).compile(
                    target, mode="max_reuse", reset_style="bogus"
                )

    def test_compiled_circuit_still_correct(self):
        report = caqr_compile(bv_circuit(5), mode="max_reuse")
        counts = run_counts(report.circuit, shots=60, seed=2)
        projected = {}
        for key, value in counts.items():
            projected[key[:4]] = projected.get(key[:4], 0) + value
        assert projected == {"1111": 60}


class TestGraphTarget:
    def test_graph_qubit_budget(self):
        graph = random_graph(8, 0.3, seed=4)
        report = caqr_compile(graph, mode="qubit_budget", qubit_limit=6)
        assert report.metrics.qubits_used == 6

    def test_graph_min_swap(self):
        backend = ibm_mumbai()
        graph = random_graph(8, 0.3, seed=4)
        report = caqr_compile(graph, backend=backend, mode="min_swap")
        assert report.baseline_metrics is not None
        assert report.metrics.swap_count <= report.baseline_metrics.swap_count + 2

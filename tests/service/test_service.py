"""CompileService behaviour: hits, dedup, batching, corruption recovery."""

import threading

import pytest

from repro.compile_api import caqr_compile
from repro.exceptions import ReuseError, ServiceError
from repro.hardware import ibm_mumbai
from repro.service import (
    CompileRequest,
    CompileService,
    default_service,
    reset_default_service,
    resolve_cache,
)
from repro.service.serialization import SCHEMA_VERSION
from repro.workloads import bv_circuit, random_graph


def _report_fields(report):
    """Everything but the from_cache flag, for identity comparisons."""
    return (
        report.circuit.num_qubits,
        report.circuit.num_clbits,
        report.circuit.data,
        report.mode,
        report.metrics,
        report.baseline_metrics,
        report.reuse_beneficial,
        report.qubit_saving,
        report.route_stats,
    )


class TestSingleRequests:
    def test_miss_then_hit(self):
        service = CompileService()
        cold = service.compile(bv_circuit(6), mode="max_reuse")
        warm = service.compile(bv_circuit(6), mode="max_reuse")
        assert cold.from_cache is False
        assert warm.from_cache is True
        assert _report_fields(cold) == _report_fields(warm)
        assert service.stats.counters["misses"] == 1
        assert service.stats.counters["hits"] == 1
        assert service.stats.rate("hits", "misses") == pytest.approx(0.5)

    def test_different_knobs_are_different_entries(self):
        service = CompileService()
        service.compile(bv_circuit(5), mode="max_reuse")
        report = service.compile(bv_circuit(5), mode="min_depth")
        assert report.from_cache is False
        assert service.stats.counters["misses"] == 2

    def test_engine_knobs_share_one_entry(self):
        # parallel selects how the engine runs, not the result; the
        # serial == pooled harnesses pin both identical, so they hit the
        # same cache entry
        service = CompileService()
        cold = service.compile(bv_circuit(6), parallel=True)
        warm = service.compile(bv_circuit(6), parallel=False)
        assert warm.from_cache is True
        assert _report_fields(cold) == _report_fields(warm)

    def test_served_reports_are_independent_objects(self):
        service = CompileService()
        service.compile(bv_circuit(5))
        a = service.compile(bv_circuit(5))
        b = service.compile(bv_circuit(5))
        assert a.circuit is not b.circuit
        a.circuit.data.pop()
        assert len(b.circuit.data) == len(a.circuit.data) + 1

    def test_graph_target(self):
        service = CompileService()
        graph = random_graph(8, 0.3, seed=5)
        cold = service.compile(graph, mode="max_reuse")
        warm = service.compile(graph, mode="max_reuse")
        assert warm.from_cache is True
        assert _report_fields(cold) == _report_fields(warm)

    def test_min_swap_roundtrips_route_stats(self):
        service = CompileService()
        backend = ibm_mumbai()
        cold = service.compile(bv_circuit(5), backend=backend, mode="min_swap")
        warm = service.compile(bv_circuit(5), backend=backend, mode="min_swap")
        assert cold.route_stats is not None
        assert warm.route_stats == cold.route_stats
        assert warm.baseline_metrics == cold.baseline_metrics

    def test_errors_propagate_and_are_not_cached(self):
        service = CompileService()
        for _ in range(2):
            with pytest.raises(ReuseError):
                service.compile(bv_circuit(5), mode="qubit_budget", qubit_limit=1)
        assert service.stats.counters["misses"] == 2
        assert service.stats.counters.get("stores", 0) == 0


class TestDiskPersistence:
    def test_warm_start_across_service_instances(self, tmp_path):
        first = CompileService(cache_dir=str(tmp_path))
        cold = first.compile(bv_circuit(6))
        second = CompileService(cache_dir=str(tmp_path))
        warm = second.compile(bv_circuit(6))
        assert warm.from_cache is True
        assert _report_fields(cold) == _report_fields(warm)
        assert second.stats.counters["disk_hits"] == 1

    def test_corrupt_entry_recompiles(self, tmp_path):
        service = CompileService(cache_dir=str(tmp_path))
        service.compile(bv_circuit(5))
        [entry] = list(tmp_path.rglob("*.json"))
        entry.write_text("{ not json at all")
        fresh = CompileService(cache_dir=str(tmp_path))
        report = fresh.compile(bv_circuit(5))
        assert report.from_cache is False
        assert fresh.stats.counters["corrupt_entries"] == 1
        # the bad file was dropped and replaced by the recompile
        again = CompileService(cache_dir=str(tmp_path)).compile(bv_circuit(5))
        assert again.from_cache is True

    def test_partial_write_recovers(self, tmp_path):
        service = CompileService(cache_dir=str(tmp_path))
        service.compile(bv_circuit(5))
        [entry] = list(tmp_path.rglob("*.json"))
        text = entry.read_text()
        entry.write_text(text[: len(text) // 2])  # simulate a torn write
        fresh = CompileService(cache_dir=str(tmp_path))
        report = fresh.compile(bv_circuit(5))
        assert report.from_cache is False
        assert fresh.stats.counters["corrupt_entries"] == 1

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        service = CompileService(cache_dir=str(tmp_path))
        service.compile(bv_circuit(5))
        [entry] = list(tmp_path.rglob("*.json"))
        entry.write_text(
            entry.read_text().replace(
                f'"schema": {SCHEMA_VERSION}', '"schema": 999'
            )
        )
        fresh = CompileService(cache_dir=str(tmp_path))
        assert fresh.compile(bv_circuit(5)).from_cache is False
        assert fresh.stats.counters["corrupt_entries"] == 1

    def test_clear(self, tmp_path):
        service = CompileService(cache_dir=str(tmp_path))
        service.compile(bv_circuit(5))
        service.clear()
        assert list(tmp_path.rglob("*.json")) == []
        assert service.compile(bv_circuit(5)).from_cache is False


class TestBatch:
    def test_duplicates_fold_and_order_is_preserved(self):
        service = CompileService()
        requests = [
            CompileRequest(bv_circuit(6)),
            CompileRequest(bv_circuit(7)),
            CompileRequest(bv_circuit(6)),
            CompileRequest(bv_circuit(8)),
            CompileRequest(bv_circuit(7)),
            CompileRequest(bv_circuit(6)),
        ]
        reports = service.compile_batch(requests, parallel=False)
        assert [r.circuit.num_qubits for r in reports] == [6, 7, 6, 8, 7, 6]
        assert service.stats.counters["dedup_folds"] == 3
        assert service.stats.counters["batch_unique"] == 3
        assert service.stats.counters["misses"] == 3
        # first member per fingerprint paid the compile, the rest folded
        assert [r.from_cache for r in reports] == [
            False, False, True, False, True, True,
        ]
        # folded members are field-identical to the one that compiled
        assert _report_fields(reports[0]) == _report_fields(reports[2])
        assert _report_fields(reports[1]) == _report_fields(reports[4])

    def test_warm_members_served_from_cache(self):
        service = CompileService()
        service.compile(bv_circuit(6))
        reports = service.compile_batch(
            [CompileRequest(bv_circuit(6)), CompileRequest(bv_circuit(7))],
            parallel=False,
        )
        assert [r.from_cache for r in reports] == [True, False]
        assert service.stats.counters["hits"] == 1

    def test_parallel_fanout_matches_serial(self):
        circuits = [bv_circuit(n) for n in (5, 6, 7)]
        pooled = CompileService(max_workers=2)
        serial = CompileService()
        fast = pooled.compile_batch([CompileRequest(c) for c in circuits])
        slow = serial.compile_batch(
            [CompileRequest(c) for c in circuits], parallel=False
        )
        assert pooled.stats.counters["parallel_compiles"] == 3
        assert serial.stats.counters["serial_compiles"] == 3
        for a, b in zip(fast, slow):
            assert _report_fields(a) == _report_fields(b)

    def test_batch_populates_cache_for_later_singles(self):
        service = CompileService()
        service.compile_batch([CompileRequest(bv_circuit(6))], parallel=False)
        assert service.compile(bv_circuit(6)).from_cache is True

    def test_empty_batch(self):
        assert CompileService().compile_batch([]) == []

    def test_non_request_member_rejected(self):
        with pytest.raises(ServiceError):
            CompileService().compile_batch([bv_circuit(4)])


class TestConcurrentDedup:
    def test_threads_fold_onto_one_compile(self):
        service = CompileService()
        circuit = bv_circuit(12)
        barrier = threading.Barrier(4)
        reports, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=30)
                reports.append(service.compile(circuit))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(reports) == 4
        # exactly one thread compiled; the rest hit the cache or joined
        # the in-flight future
        assert service.stats.counters["misses"] == 1
        folds = service.stats.counters.get("dedup_folds", 0)
        hits = service.stats.counters.get("hits", 0)
        assert folds + hits == 3
        first = reports[0]
        for other in reports[1:]:
            assert _report_fields(other) == _report_fields(first)


class TestApiIntegration:
    def test_caqr_compile_cache_argument(self):
        service = CompileService()
        cold = caqr_compile(bv_circuit(5), cache=service)
        warm = caqr_compile(bv_circuit(5), cache=service)
        assert cold.from_cache is False
        assert warm.from_cache is True
        plain = caqr_compile(bv_circuit(5))
        assert plain.from_cache is False
        assert service.stats.counters["requests"] == 2

    def test_cache_directory_string(self, tmp_path):
        caqr_compile(bv_circuit(5), cache=str(tmp_path))
        assert list(tmp_path.rglob("*.json"))
        warm = caqr_compile(bv_circuit(5), cache=str(tmp_path))
        assert warm.from_cache is True

    def test_default_service_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAQR_CACHE_DIR", str(tmp_path))
        reset_default_service()
        try:
            caqr_compile(bv_circuit(5), cache=True)
            assert list(tmp_path.rglob("*.json"))
            assert default_service() is default_service()
        finally:
            reset_default_service()

    def test_resolve_cache_specs(self):
        service = CompileService()
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(service) is service
        with pytest.raises(ServiceError):
            resolve_cache(42)

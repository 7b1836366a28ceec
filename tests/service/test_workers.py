"""The services' persistent worker pool: serial == pooled.

A pooled ``compile_batch`` ships each cold request to a
:class:`~repro.parallel.WorkerPool` worker by pickle and must come back
identical to the serial path.  "Identical" means every compile output
field-for-field; the stats *timer* maps riding on the report
(``route_stats``/``eval_stats``/``sim_stats``) are wall-clock
measurements and are normalised out before comparing two independent
runs (they are only pinned warm-vs-primed, where the cache replays one
run — see ``tests/property/test_cache_roundtrip.py``).  So are the
``parallel_*``/``serial_*`` counters: they say where a request's own
fan-outs ran (a pool worker runs them serial, the serial batch path may
pool them), not what they computed.  The pool itself is tested in
``tests/test_parallel.py``.
"""

import networkx as nx
import pytest

import repro.parallel as parallel
from repro.circuit.random import random_circuit
from repro.hardware import ibm_mumbai
from repro.service import CompileService, report_to_dict
from repro.service.service import CompileRequest
from repro.workloads import bv_circuit


def _normalized(report_dict):
    """Report dict without the stats timers and fan-out venue counters."""
    out = dict(report_dict)
    for field in ("route_stats", "eval_stats", "sim_stats"):
        stats = out.get(field)
        if stats is not None:
            counters = {
                name: count
                for name, count in stats["counters"].items()
                if not name.startswith(("parallel_", "serial_"))
            }
            out[field] = {**stats, "counters": counters, "timers": {}}
    return out


class TestServiceIntegration:
    def _batch_dicts(self, reports):
        return [_normalized(report_to_dict(report)) for report in reports]

    def test_persistent_batch_matches_serial_and_reuses_the_pool(self):
        requests = [CompileRequest(target=bv_circuit(n)) for n in (4, 5, 6)]
        requests += [
            CompileRequest(target=nx.random_regular_graph(3, 8, seed=1)),
            CompileRequest(bv_circuit(6), ibm_mumbai(), mode="min_swap"),
        ]
        serial = CompileService()
        pooled = CompileService(max_workers=2)
        try:
            base = self._batch_dicts(serial.compile_batch(requests, parallel=False))
            fast = self._batch_dicts(pooled.compile_batch(requests, parallel=True))
            assert fast == base, "pooled batch must match the serial path"
            assert pooled.stats.counters["worker_pool_spawns"] == 1
            assert pooled.stats.counters["worker_tasks"] == len(requests)
            # a second dispatch reuses the same pool generation
            pooled.cache.clear()
            again = self._batch_dicts(pooled.compile_batch(requests, parallel=True))
            assert again == base
            assert pooled.stats.counters["worker_pool_spawns"] == 1
        finally:
            serial.close()
            pooled.close()

    def test_close_is_idempotent_and_the_pool_respawns_lazily(self):
        service = CompileService(max_workers=2)
        requests = [CompileRequest(target=bv_circuit(n)) for n in (4, 5)]
        try:
            service.compile_batch(requests, parallel=True)
            service.close()
            service.close()
            service.cache.clear()
            service.compile_batch(requests, parallel=True)
            assert service.stats.counters["worker_pool_spawns"] == 2
        finally:
            service.close()


class TestSmallMissRunsInProcess:
    """A served single-request miss on a small circuit routes in the
    handler's process: its layout searches and SR trial grid sit below
    their workload floors, so ``parallel=True`` (fan out where it pays)
    starts no per-call pool."""

    @pytest.mark.parametrize("mode", ["min_swap", "max_reuse"])
    def test_six_qubit_miss_starts_no_pool(self, monkeypatch, two_workers, mode):
        def _no_pools(workers):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel, "new_pool", _no_pools)
        circuit = random_circuit(6, 16, seed=5, two_qubit_fraction=0.4, measure=True)
        service = CompileService()
        try:
            report, _, status = service.compile_classified(
                CompileRequest(circuit, ibm_mumbai(), mode=mode, parallel=True)
            )
        finally:
            service.close()
        assert status == "miss"
        if mode == "min_swap":
            counters = report.route_stats.counters
            assert counters["serial_trials"] > 0
            assert "parallel_trials" not in counters
        else:
            assert report.route_stats is None

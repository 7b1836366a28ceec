"""Persistent worker pool: record protocol, respawn, serial == pooled.

The protocol tests drive ``_worker_task`` in-process (no subprocess
spawn) after resetting the worker-side decoded cache; the pool tests
spawn a real (small) pool and exercise the crash/respawn drill and the
need_record round trip; the service tests pin the contract that matters
most — a pooled ``compile_batch`` is identical to the serial path.
"Identical" means every compile output field-for-field; the stats
*timer* maps riding on the report (``route_stats``/``eval_stats``/
``sim_stats``) are wall-clock measurements and are normalised out before
comparing two independent runs (they are only pinned warm-vs-primed,
where the cache replays one run — see
``tests/property/test_cache_roundtrip.py``).
"""

import networkx as nx
import pytest

from repro.exceptions import ServiceError
from repro.service import (
    CompileService,
    WorkerPool,
    loads_entry,
    report_to_dict,
)
from repro.service.service import CompileRequest, _cold_compile
from repro.service.workers import (
    _decode_record,
    _encode_record,
    _reset_worker_state,
    _worker_task,
)
from repro.stats import Stats
from repro.workloads import bv_circuit


def _normalized(report_dict):
    """Report dict with the wall-clock stats timer maps emptied."""
    out = dict(report_dict)
    for field in ("route_stats", "eval_stats", "sim_stats"):
        stats = out.get(field)
        if stats is not None:
            out[field] = {**stats, "timers": {}}
    return out


def _entry_dict(text, fingerprint):
    """Decode an entry (validating its stamped key) to a normalised dict."""
    return _normalized(report_to_dict(loads_entry(text, key=fingerprint)))


class TestRecordCodec:
    def test_wire_roundtrip(self):
        request = CompileRequest(target=bv_circuit(4), mode="max_reuse", seed=3)
        kind, payload = _encode_record(request)
        assert kind == "wire"
        decoded = _decode_record((kind, payload))
        assert decoded.fingerprint() == request.fingerprint()

    def test_object_fallback_for_wire_inexpressible_targets(self):
        # the wire codec only expresses int-node graphs (WireError)
        graph = nx.Graph([("a", "b"), ("b", "c")])
        request = CompileRequest(target=graph, mode="max_reuse")
        kind, payload = _encode_record(request)
        assert kind == "object"
        assert _decode_record((kind, payload)) is request

    def test_other_encoding_errors_propagate(self):
        # anything but WireError is a bug, not a fallback case
        with pytest.raises(AttributeError):
            _encode_record(object())


class TestWorkerTaskProtocol:
    """``_worker_task`` run in this process against a reset decoded cache."""

    @pytest.fixture(autouse=True)
    def fresh_worker_state(self):
        _reset_worker_state()
        yield
        _reset_worker_state()

    def test_cold_worker_without_record_asks_for_it(self):
        request = CompileRequest(target=bv_circuit(4))
        fingerprint = request.fingerprint()
        assert _worker_task(("entry", fingerprint, None, None)) == (
            "need_record",
            fingerprint,
        )

    def test_entry_with_record_matches_serial_compile_exactly(self):
        request = CompileRequest(target=bv_circuit(4))
        fingerprint = request.fingerprint()
        record = _encode_record(request)
        status, text = _worker_task(("entry", fingerprint, record, None))
        assert status == "ok"
        serial = _cold_compile(request)
        assert _entry_dict(text, fingerprint) == _normalized(
            report_to_dict(serial)
        ), "pooled entry must match serial up to wall-clock stats timers"

    def test_warm_lane_needs_no_record(self):
        request = CompileRequest(target=bv_circuit(4))
        fingerprint = request.fingerprint()
        record = _encode_record(request)
        _, first = _worker_task(("entry", fingerprint, record, None))
        status, second = _worker_task(("entry", fingerprint, None, None))
        assert status == "ok"
        # the warm lane skips the record ship, not the (deterministic)
        # compile — so the entries match up to wall-clock stats timers
        assert _entry_dict(second, fingerprint) == _entry_dict(
            first, fingerprint
        )

    def test_ping_answers_pid(self):
        status, pid = _worker_task(("ping", "", None, None))
        assert status == "ok"
        assert isinstance(pid, int)

    def test_unknown_kind_rejected(self):
        request = CompileRequest(target=bv_circuit(4))
        record = _encode_record(request)
        with pytest.raises(ServiceError, match="unknown worker task kind"):
            _worker_task(("transmogrify", request.fingerprint(), record, None))


class TestWorkerPool:
    def test_crash_respawn_drill(self):
        stats = Stats()
        pool = WorkerPool(1, stats=stats, max_respawns=1)
        try:
            assert pool.ping()
            spawns_before = stats.counters["worker_pool_spawns"]
            with pytest.raises(ServiceError, match="worker pool died"):
                pool.run([("crash", "", None, None)])
            assert stats.counters["worker_respawns"] >= 2
            # the pool heals: the next use spawns fresh workers
            assert pool.ping()
            assert stats.counters["worker_pool_spawns"] > spawns_before
        finally:
            pool.shutdown()

    def test_need_record_roundtrip_then_zero_copy_redispatch(self):
        stats = Stats()
        pool = WorkerPool(1, stats=stats)
        request = CompileRequest(target=bv_circuit(4))
        fingerprint = request.fingerprint()
        try:
            assert pool.ping()  # spawn now so _shipped survives below
            # pretend the record already shipped: the cold worker answers
            # need_record and the parent resubmits with the record forced
            pool._shipped[fingerprint] = pool.max_workers
            [text] = pool.run([("entry", fingerprint, request, None)])
            loads_entry(text, key=fingerprint)  # validates the stamped key
            assert stats.counters["worker_record_misses"] == 1
            assert stats.counters["worker_records_shipped"] == 1
            # the lane is warm: a re-dispatch ships nothing and matches
            pool._shipped[fingerprint] = pool.max_workers
            [again] = pool.run([("entry", fingerprint, request, None)])
            assert _entry_dict(again, fingerprint) == _entry_dict(
                text, fingerprint
            )
            assert stats.counters["worker_record_misses"] == 1
            assert stats.counters["worker_records_shipped"] == 1
        finally:
            pool.shutdown()

    def test_results_come_back_in_input_order(self):
        pool = WorkerPool(2)
        requests = [CompileRequest(target=bv_circuit(n)) for n in (4, 5, 6)]
        try:
            texts = pool.run(
                [("entry", r.fingerprint(), r, None) for r in requests]
            )
            for request, text in zip(requests, texts):
                # loads_entry validates the stamped key matches the request
                loads_entry(text, key=request.fingerprint())
        finally:
            pool.shutdown()


class TestServiceIntegration:
    def _batch_dicts(self, reports):
        return [_normalized(report_to_dict(report)) for report in reports]

    def test_persistent_batch_matches_serial_and_reuses_the_pool(self):
        requests = [CompileRequest(target=bv_circuit(n)) for n in (4, 5, 6)]
        serial = CompileService()
        pooled = CompileService(max_workers=2)
        try:
            base = self._batch_dicts(serial.compile_batch(requests, parallel=False))
            fast = self._batch_dicts(
                pooled.compile_batch(requests, parallel=True, max_workers=2)
            )
            assert fast == base, "pooled batch must match the serial path"
            assert pooled.stats.counters["worker_pool_spawns"] == 1
            assert pooled.stats.counters["worker_tasks"] >= 3
            # a second dispatch reuses the same pool generation
            pooled.cache.clear()
            again = self._batch_dicts(
                pooled.compile_batch(requests, parallel=True, max_workers=2)
            )
            assert again == base
            assert pooled.stats.counters["worker_pool_spawns"] == 1
        finally:
            serial.close()
            pooled.close()

    def test_close_is_idempotent_and_the_pool_respawns_lazily(self):
        service = CompileService(max_workers=2)
        requests = [CompileRequest(target=bv_circuit(n)) for n in (4, 5)]
        try:
            service.compile_batch(requests, parallel=True, max_workers=2)
            service.close()
            service.close()
            service.cache.clear()
            service.compile_batch(requests, parallel=True, max_workers=2)
            assert service.stats.counters["worker_pool_spawns"] == 2
        finally:
            service.close()

"""Networked compile service: wire protocol, server, client, failure modes.

Everything runs in-process — the server on a background thread
(``start_server_thread``, port 0), clients on the test thread — so the
suite exercises real sockets without fixed ports or subprocesses.  The
cross-*process* acceptance path (many client processes, SIGTERM drain)
lives in ``scripts/server_smoke.py`` and the CI smoke job.

:class:`TestScaffold` runs the shared HTTP contract (routing errors,
body cap, auth, drain) against both apps built on
:class:`~repro.service.net.app.HttpApp`: a compile server, and a
gateway fronting one.
"""

import contextlib
import gc
import http.client
import json
import socket
import threading
import time
import warnings

import pytest

import repro.service.net.server as server_module
import repro.service.net.wire as wire_module
import repro.service.service as service_module
from repro.compile_api import caqr_compile
from repro.exceptions import RemoteServiceError
from repro.hardware import ibm_mumbai
from repro.service import (
    CompileServer,
    CompileService,
    GatewayHandle,
    RemoteCompileService,
    WireError,
    start_gateway_thread,
    start_server_thread,
)
from repro.service.net.wire import (
    WIRE_SCHEMA_VERSION,
    batch_from_wire,
    error_from_wire,
    error_to_wire,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.service import CompileRequest, resolve_cache
from repro.workloads import bv_circuit, random_graph


class TestWire:
    def test_circuit_request_roundtrip(self):
        request = CompileRequest(
            target=bv_circuit(5), mode="max_reuse", qubit_limit=3, seed=7
        )
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.fingerprint() == request.fingerprint()
        assert decoded.mode == "max_reuse"
        assert decoded.qubit_limit == 3
        assert decoded.seed == 7

    def test_graph_request_roundtrip(self):
        request = CompileRequest(target=random_graph(8, 0.4, seed=3))
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.fingerprint() == request.fingerprint()

    def test_backend_request_roundtrip(self):
        request = CompileRequest(
            target=bv_circuit(5), backend=ibm_mumbai(), mode="min_swap"
        )
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.fingerprint() == request.fingerprint()
        assert decoded.shard() == request.shard()

    def test_schema_mismatch_rejected(self):
        payload = request_to_wire(CompileRequest(target=bv_circuit(5)))
        payload["schema"] = 999
        with pytest.raises(WireError):
            request_from_wire(payload)

    def test_malformed_request_rejected(self):
        with pytest.raises(WireError):
            request_from_wire("not a dict")
        with pytest.raises(WireError):
            request_from_wire({"schema": WIRE_SCHEMA_VERSION, "target_kind": "x"})

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("auto_commuting", "false"),
            ("auto_commuting", 0),
            ("parallel", "true"),
            ("parallel", None),
            ("incremental", "false"),
            ("seed", "3"),
            ("seed", True),
            ("seed", None),
            ("qubit_limit", 2.0),
            ("qubit_limit", False),
            ("portfolio_workers", "2"),
            ("calib_bands", True),
        ],
    )
    def test_knob_types_are_strict(self, knob, value):
        payload = request_to_wire(CompileRequest(target=bv_circuit(5)))
        payload["knobs"][knob] = value
        with pytest.raises(WireError, match=knob):
            request_from_wire(payload)

    def test_encoder_omits_the_retired_incremental_knob(self):
        payload = request_to_wire(CompileRequest(target=bv_circuit(5)))
        assert "incremental" not in payload["knobs"]

    def test_legacy_incremental_knob_is_ignored(self):
        request = CompileRequest(target=bv_circuit(5), mode="max_reuse")
        payload = request_to_wire(request)
        payload["knobs"]["incremental"] = False
        assert request_from_wire(payload).fingerprint() == request.fingerprint()

    def test_batch_parallel_must_be_a_bool(self):
        members = [request_to_wire(CompileRequest(target=bv_circuit(5)))]
        envelope = {"schema": WIRE_SCHEMA_VERSION, "requests": members}
        assert batch_from_wire(envelope) == (members, True)
        with pytest.raises(WireError, match="parallel"):
            batch_from_wire({**envelope, "parallel": "false"})

    def test_response_roundtrip_sets_from_cache(self):
        report = CompileService().compile(bv_circuit(5))
        for status, expected in (("miss", False), ("hit", True), ("inflight", True)):
            payload = response_to_wire("f" * 64, status, report)
            decoded, fingerprint, decoded_status = response_from_wire(
                json.loads(json.dumps(payload))
            )
            assert fingerprint == "f" * 64
            assert decoded_status == status
            assert decoded.from_cache is expected
            assert decoded.metrics == report.metrics

    def test_bad_cache_status_rejected(self):
        report = CompileService().compile(bv_circuit(5))
        with pytest.raises(WireError):
            response_to_wire("f" * 64, "warmish", report)

    def test_error_envelope_roundtrip(self):
        code, message = error_from_wire(error_to_wire("overloaded", "busy"))
        assert (code, message) == ("overloaded", "busy")
        with pytest.raises(WireError):
            error_to_wire("made_up_code", "nope")

    def test_error_from_junk_defaults_to_internal(self):
        for junk in (None, "a proxy error page", {"error": {"code": "bogus"}}):
            code, _ = error_from_wire(junk)
            assert code == "internal"

    @pytest.mark.parametrize(
        "path, value",
        [
            (("target",), None),
            (("target", "num_qubits"), "x"),
            (("target", "num_qubits"), 1),
            (("target", "instructions"), 7),
            (("target", "instructions", 0), "h"),
            (("backend",), [1]),
            (("backend", "num_qubits"), None),
            (("backend", "calibration"), []),
            (("backend", "calibration", "cx_error"), "x"),
            (("backend", "calibration", "t1_dt"), [1.0]),
            (("knobs",), [1]),
        ],
    )
    def test_malformed_records_are_wire_errors(self, path, value):
        payload = request_to_wire(
            CompileRequest(target=bv_circuit(3), backend=ibm_mumbai())
        )
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(WireError):
            request_from_wire(payload)


@pytest.fixture
def server():
    handle = start_server_thread(service=CompileService())
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with RemoteCompileService(server.url, timeout=120, backoff=0.01) as remote:
        yield remote


class TestServerRoundtrip:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["draining"] is False

    def test_miss_then_hit_statuses(self, client):
        request = CompileRequest(target=bv_circuit(6))
        report, fingerprint, status = client.compile_classified(request)
        assert status == "miss"
        assert report.from_cache is False
        assert fingerprint == request.fingerprint()
        again, fingerprint2, status2 = client.compile_classified(request)
        assert status2 == "hit"
        assert again.from_cache is True
        assert fingerprint2 == fingerprint
        assert again.metrics == report.metrics

    def test_cache_headers_on_the_wire(self, server):
        body = json.dumps(
            request_to_wire(CompileRequest(target=bv_circuit(5)))
        ).encode()
        conn = http.client.HTTPConnection(server.server.host, server.server.port)
        try:
            statuses = []
            for _ in range(2):
                conn.request("POST", "/v1/compile", body=body)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("X-CaQR-Fingerprint")
                statuses.append(response.getheader("X-CaQR-Cache"))
            assert statuses == ["miss", "hit"]
        finally:
            conn.close()

    def test_batch_roundtrip_folds_duplicates(self, client, server):
        requests = [
            CompileRequest(target=bv_circuit(5)),
            CompileRequest(target=bv_circuit(6)),
            CompileRequest(target=bv_circuit(5)),
        ]
        reports = client.compile_batch(requests)
        assert len(reports) == 3
        assert reports[0].metrics == reports[2].metrics
        assert server.server.service.stats.counters["misses"] == 2
        assert server.server.service.stats.counters["dedup_folds"] == 1

    def test_batch_labels_come_from_the_request_path(self, server, monkeypatch):
        calls = []
        fingerprint = CompileRequest.fingerprint

        def counted(request):
            calls.append(request)
            return fingerprint(request)

        monkeypatch.setattr(CompileRequest, "fingerprint", counted)
        members = [
            request_to_wire(CompileRequest(target=bv_circuit(n))) for n in (5, 6, 5)
        ]
        calls.clear()
        body = json.dumps(
            {"schema": WIRE_SCHEMA_VERSION, "requests": members, "parallel": False}
        ).encode()
        status, payload = _request(server, "POST", "/v1/compile_batch", body)
        assert status == 200
        results = payload["results"]
        assert [r["cache_status"] for r in results] == ["miss", "miss", "inflight"]
        assert results[0]["fingerprint"] == results[2]["fingerprint"]
        # each member is fingerprinted once, by the service
        assert len(calls) == 3
        assert server.server.service.stats.counters["stores"] == 2

    def test_envelope_hit_honours_band_ttl(self):
        handle = start_server_thread(service=CompileService(ttl_by_bands={1: 0.5}))
        try:
            with RemoteCompileService(handle.url, backoff=0.01) as remote:
                request = CompileRequest(target=bv_circuit(5), calib_bands=1)
                statuses = [remote.compile_classified(request)[2] for _ in range(3)]
                assert statuses == ["miss", "hit", "hit"]
                assert handle.server.stats.counters["envelope_hits"] == 1
                time.sleep(1.0)
                assert remote.compile_classified(request)[2] == "miss"
        finally:
            handle.stop()

    def test_remote_equals_local(self, client):
        circuit = bv_circuit(7)
        remote = client.compile(circuit, mode="max_reuse")
        local = CompileService().compile(circuit, mode="max_reuse")
        assert remote.circuit.data == local.circuit.data
        assert remote.metrics == local.metrics
        assert remote.baseline_metrics == local.baseline_metrics
        assert remote.reuse_beneficial == local.reuse_beneficial
        assert remote.qubit_saving == local.qubit_saving

    def test_url_cache_closes_its_one_call_client(self, server):
        """``caqr_compile(cache=<url>)`` leaves no keep-alive socket open."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for width in (4, 5, 6):
                caqr_compile(bv_circuit(width), cache=server.url)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_stats_endpoint(self, client):
        client.compile(bv_circuit(5))
        payload = client.stats()
        assert payload["stats"]["counters"]["requests"] >= 1
        assert payload["stats"]["counters"]["http_requests"] >= 1
        assert "hit_rate" in payload["stats"]
        assert "dedup_rate" in payload["stats"]

    def test_stats_rates_are_served(self, server, client):
        # a fresh server's sink, driven directly: a stats GET bumps
        # neither the request nor the cache counters
        stats = server.app.stats
        stats.count("requests", 8)
        stats.count("dedup_folds", 4)
        stats.count("hits", 3)
        stats.count("misses", 1)
        served = client.stats()["stats"]
        assert served["dedup_rate"] == pytest.approx(0.5)
        assert served["hit_rate"] == pytest.approx(0.75)
        assert server.app._stats_payload()["dedup_rate"] == pytest.approx(0.5)

    def test_invalidate_endpoint(self, client):
        request = CompileRequest(target=bv_circuit(5))
        _, fingerprint, _ = client.compile_classified(request)
        assert client.invalidate(fingerprint) is True
        assert client.invalidate(fingerprint) is False
        _, _, status = client.compile_classified(request)
        assert status == "miss"

    def test_clear_endpoint(self, client):
        request = CompileRequest(target=bv_circuit(5))
        client.compile_classified(request)
        client.clear()
        _, _, status = client.compile_classified(request)
        assert status == "miss"

    def test_resolve_cache_url(self, server):
        spec = resolve_cache(server.url)
        assert isinstance(spec, RemoteCompileService)
        assert spec.url == server.url
        assert resolve_cache(spec) is spec


APPS = ("server", "gateway")


@contextlib.contextmanager
def _serving(kind, **kwargs):
    """A compile server, or a gateway over one; *kwargs* go to the front."""
    server = start_server_thread(
        service=CompileService(), **(kwargs if kind == "server" else {})
    )
    try:
        if kind == "server":
            yield server
            return
        gateway = start_gateway_thread(
            backends=[server.url], probe_interval=0.2, **kwargs
        )
        try:
            yield gateway
        finally:
            gateway.stop()
    finally:
        server.stop()


def _request(handle, method, path, body=b"", headers=None):
    conn = http.client.HTTPConnection(handle.app.host, handle.app.port)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _raw_exchange(handle, blob):
    """Send raw bytes, read until the app closes: ``(status, headers, body)``."""
    with socket.create_connection(
        (handle.app.host, handle.app.port), timeout=30
    ) as sock:
        sock.sendall(blob)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split(" ")[1]), headers, json.loads(body)


@pytest.fixture(params=APPS)
def front(request):
    with _serving(request.param) as handle:
        yield handle


class TestScaffold:
    def test_unknown_route(self, front):
        status, payload = _request(front, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_method_not_allowed(self, front):
        status, payload = _request(front, "POST", "/v1/health")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, payload = _request(front, "GET", "/v1/compile")
        assert status == 405

    def test_bad_json_body(self, front):
        status, payload = _request(front, "POST", "/v1/compile", b"not json")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        # one error reply, one error count
        assert front.app.stats.counters["http_errors"] == 1

    def test_payload_too_large(self, front):
        # only the head is sent: the 413 must come before any body read
        status, headers, payload = _raw_exchange(
            front,
            b"POST /v1/compile HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100000000\r\n\r\n",
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"
        assert headers["connection"] == "close"

    def test_malformed_head(self, front):
        status, headers, payload = _raw_exchange(front, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert headers["connection"] == "close"

    @pytest.mark.parametrize("kind", APPS)
    def test_auth_required_except_health(self, kind):
        with _serving(kind, auth_token="s3cret") as handle:
            status, payload = _request(handle, "GET", "/v1/health")
            assert status == 200
            for path in ("/v1/stats", "/v1/metrics", "/nope"):
                status, payload = _request(handle, "GET", path)
                assert status == 401
                assert payload["error"]["code"] == "unauthorized"
            status, _ = _request(
                handle, "GET", "/v1/stats", headers={"Authorization": "Bearer s3cret"}
            )
            assert status == 200

    @pytest.mark.parametrize("kind", APPS)
    def test_drain_finishes_inflight_and_rejects_new(self, kind, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        body = json.dumps(
            request_to_wire(CompileRequest(target=bv_circuit(7)))
        ).encode()
        with _serving(kind) as handle:
            # a keep-alive connection opened before the drain: the
            # listener closes, so only such a connection sees the 503
            conn = http.client.HTTPConnection(handle.app.host, handle.app.port)
            conn.request("GET", "/v1/health")
            assert conn.getresponse().read()
            outcome = {}

            def inflight():
                with RemoteCompileService(
                    handle.url, timeout=60, retries=0
                ) as remote:
                    outcome["report"] = remote.compile_request(
                        CompileRequest(target=bv_circuit(6))
                    )

            worker = threading.Thread(target=inflight)
            try:
                worker.start()
                assert started.wait(30)
                handle.app.request_shutdown_threadsafe()
                deadline = time.monotonic() + 10
                while not handle.app._draining and time.monotonic() < deadline:
                    time.sleep(0.01)
                conn.request("POST", "/v1/compile", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 503
                assert payload["error"]["code"] == "shutting_down"
            finally:
                conn.close()
                release.set()
                worker.join(60)
            assert not worker.is_alive()
            # the request already in flight completed despite the drain
            assert outcome["report"].metrics is not None
            handle.thread.join(30)
            assert not handle.thread.is_alive(), f"{kind} failed to drain"


    def test_route_crash_is_a_counted_internal_error(self, front):
        async def crash(headers, body):
            raise RuntimeError("route bug")

        front.app._routes["/v1/crash"] = ("GET", crash)
        prefix = "caqr_gateway" if isinstance(front, GatewayHandle) else "caqr"
        metric = f"{prefix}_http_internal_errors_total"
        assert _counter(front, metric) == 0
        status, payload = _request(front, "GET", "/v1/crash")
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert "RuntimeError: route bug" in payload["error"]["message"]
        assert _counter(front, metric) == 1
        assert front.app.stats.counters["http_internal_errors"] == 1


def _counter(handle, metric):
    """One unlabelled sample of *handle*'s ``GET /v1/metrics`` body."""
    conn = http.client.HTTPConnection(handle.app.host, handle.app.port)
    try:
        conn.request("GET", "/v1/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    for line in text.splitlines():
        if line.startswith(metric + " "):
            return float(line.split(" ")[1])
    raise AssertionError(f"{metric} not served")


class TestServerErrors:
    def test_schema_mismatch_is_bad_request(self, server):
        body = json.dumps({"schema": 999}).encode()
        status, payload = _request(server, "POST", "/v1/compile", body)
        assert status == 400

    def test_payload_too_large(self):
        handle = start_server_thread(
            service=CompileService(), max_body=128
        )
        try:
            status, payload = _request(handle, "POST", "/v1/compile", b"x" * 1024)
            assert status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            handle.stop()

    def test_unknown_mode_is_bad_request_and_never_stored(self, server):
        request = CompileRequest(
            target=bv_circuit(5), mode="bogus", strategy="portfolio"
        )
        body = json.dumps(request_to_wire(request)).encode()
        status, payload = _request(server, "POST", "/v1/compile", body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "bogus" in payload["error"]["message"]
        assert server.server.service.stats.counters.get("stores", 0) == 0

    def test_unknown_reset_style_is_a_compile_error_and_never_stored(self, server):
        for target in (bv_circuit(5), random_graph(8, 0.3, seed=4)):
            payload = request_to_wire(CompileRequest(target=target, mode="max_reuse"))
            payload["knobs"]["reset_style"] = "bogus"
            body = json.dumps(payload).encode()
            status, reply = _request(server, "POST", "/v1/compile", body)
            assert status == 422
            assert reply["error"]["code"] == "compile_error"
            assert "reset style 'bogus'" in reply["error"]["message"]
        assert server.server.service.stats.counters.get("stores", 0) == 0

    def test_string_bool_knob_is_bad_request_and_never_stored(self, server):
        payload = request_to_wire(CompileRequest(target=bv_circuit(5)))
        payload["knobs"]["auto_commuting"] = "false"
        body = json.dumps(payload).encode()
        status, reply = _request(server, "POST", "/v1/compile", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert "auto_commuting" in reply["error"]["message"]
        assert server.server.service.stats.counters.get("stores", 0) == 0

    def test_batch_string_parallel_is_bad_request(self, server):
        member = request_to_wire(CompileRequest(target=bv_circuit(5)))
        body = json.dumps(
            {"schema": WIRE_SCHEMA_VERSION, "requests": [member], "parallel": "no"}
        ).encode()
        status, reply = _request(server, "POST", "/v1/compile_batch", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert server.server.service.stats.counters.get("stores", 0) == 0

    def test_legacy_incremental_knob_shares_the_entry(self, server):
        # older clients still send the retired engine switch; it never
        # changed the result, so it must key the same cache entry
        request = CompileRequest(target=bv_circuit(6), mode="max_reuse")
        fresh = request_to_wire(request)
        legacy = request_to_wire(request)
        legacy["knobs"]["incremental"] = False
        status, cold = _request(
            server, "POST", "/v1/compile", json.dumps(fresh).encode()
        )
        assert status == 200 and cold["cache_status"] == "miss"
        status, warm = _request(
            server, "POST", "/v1/compile", json.dumps(legacy).encode()
        )
        assert status == 200 and warm["cache_status"] == "hit"
        assert warm["fingerprint"] == cold["fingerprint"] == request.fingerprint()
        assert warm["report"] == cold["report"]
        assert server.server.service.stats.counters["stores"] == 1

    def test_decoder_bug_is_a_counted_internal_error(self, server, monkeypatch):
        # only malformed input is a bad_request: a decoder that breaks
        # must show up as a 500, not be relabelled as the client's fault
        def broken(payload):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(wire_module, "circuit_from_dict", broken)
        body = json.dumps(request_to_wire(CompileRequest(target=bv_circuit(5))))
        status, reply = _request(server, "POST", "/v1/compile", body.encode())
        assert status == 500
        assert reply["error"]["code"] == "internal"
        assert server.server.stats.counters["http_internal_errors"] == 1

    def test_infeasible_budget_is_compile_error(self, client):
        request = CompileRequest(
            target=bv_circuit(5), mode="qubit_budget", qubit_limit=1
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            client.compile_request(request)
        assert excinfo.value.code == "compile_error"
        assert excinfo.value.status == 422


def _post_compile(handle, body, headers=None):
    """``(status, X-CaQR-* headers, raw body)`` of one ``/v1/compile``."""
    conn = http.client.HTTPConnection(handle.app.host, handle.app.port, timeout=30)
    try:
        conn.request("POST", "/v1/compile", body=body, headers=headers or {})
        response = conn.getresponse()
        caqr = {
            name: value
            for name, value in response.getheaders()
            if name.lower().startswith("x-caqr-")
        }
        return response.status, caqr, response.read()
    finally:
        conn.close()


def _compile_body(**knobs):
    return json.dumps(
        request_to_wire(CompileRequest(target=bv_circuit(5), **knobs))
    ).encode()


def _warm(handle, body):
    """Miss, then the hit that stores the envelope and the body key."""
    cache = [_post_compile(handle, body)[1]["X-CaQR-Cache"] for _ in range(2)]
    assert cache == ["miss", "hit"]


class TestBodyKeyMemo:
    def test_repeat_body_skips_decode_and_fingerprint(self, server, monkeypatch):
        body = _compile_body(strategy="chain", mode="max_reuse")
        _warm(server, body)
        decodes, fingerprints = [], []
        decode, fingerprint = server_module.request_from_wire, CompileRequest.fingerprint
        monkeypatch.setattr(
            server_module,
            "request_from_wire",
            lambda payload: decodes.append(1) or decode(payload),
        )
        monkeypatch.setattr(
            CompileRequest,
            "fingerprint",
            lambda request: fingerprints.append(1) or fingerprint(request),
        )
        memo_reply = _post_compile(server, body)
        assert (decodes, fingerprints) == ([], [])
        stats = server.server.stats
        assert stats.counters["body_key_hits"] == 1
        assert stats.counters["envelope_hits"] == 1
        # without the memo entry the same bytes take the envelope path
        server.server._body_keys.clear()
        envelope_reply = _post_compile(server, body)
        assert (len(decodes), len(fingerprints)) == (1, 1)
        assert stats.counters["body_key_hits"] == 1
        assert stats.counters["envelope_hits"] == 2
        assert memo_reply == envelope_reply
        status, headers, payload = memo_reply
        assert status == 200
        assert headers["X-CaQR-Cache"] == "hit"
        assert headers["X-CaQR-Strategy"] == "chain"
        assert headers["X-CaQR-Fingerprint"] == json.loads(payload)["fingerprint"]

    @pytest.mark.parametrize("scope", ["key", "all"])
    def test_invalidate_recompiles(self, server, scope):
        body = _compile_body()
        _warm(server, body)
        status, headers, _ = _post_compile(server, body)
        assert server.server.stats.counters["body_key_hits"] == 1
        invalidation = (
            {"all": True}
            if scope == "all"
            else {"fingerprint": headers["X-CaQR-Fingerprint"]}
        )
        status, _ = _request(
            server, "POST", "/v1/cache/invalidate", json.dumps(invalidation).encode()
        )
        assert status == 200
        assert _post_compile(server, body)[1]["X-CaQR-Cache"] == "miss"
        assert server.server.stats.counters["body_key_hits"] == 1

    def test_band_ttl_expiry_recompiles(self):
        handle = start_server_thread(service=CompileService(ttl_by_bands={1: 0.5}))
        try:
            body = _compile_body(calib_bands=1)
            _warm(handle, body)
            assert _post_compile(handle, body)[1]["X-CaQR-Cache"] == "hit"
            assert handle.server.stats.counters["body_key_hits"] == 1
            time.sleep(1.0)
            assert _post_compile(handle, body)[1]["X-CaQR-Cache"] == "miss"
            assert handle.server.stats.counters["body_key_hits"] == 1
        finally:
            handle.stop()

    def test_zero_envelope_entries_disables_the_memo(self):
        handle = start_server_thread(
            service=CompileService(), envelope_cache_entries=0
        )
        try:
            body = _compile_body()
            statuses = [_post_compile(handle, body)[1]["X-CaQR-Cache"] for _ in range(4)]
            assert statuses == ["miss", "hit", "hit", "hit"]
            counters = handle.server.stats.counters
            assert counters.get("body_key_hits", 0) == 0
            assert counters.get("envelope_hits", 0) == 0
        finally:
            handle.stop()

    def test_cache_only_probe_skips_the_memo(self, server):
        probe = {server_module.CACHE_ONLY_HEADER: "1"}
        cold = _compile_body(seed=3)
        status, headers, payload = _post_compile(server, cold, probe)
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "cache_miss"
        body = _compile_body()
        _warm(server, body)
        memo_reply = _post_compile(server, body)
        status, headers, payload = _post_compile(server, body, probe)
        assert (status, headers, payload) == memo_reply
        counters = server.server.stats.counters
        assert counters["cache_only_hits"] == 1
        assert counters["cache_only_misses"] == 1
        assert counters["body_key_hits"] == 1


def _slow_cold_compile(monkeypatch, started, release):
    """Patch the cold-compile hook so compiles block until *release* is set."""
    original = service_module._cold_compile

    def slow(request):
        started.set()
        assert release.wait(30), "test forgot to release the compile"
        return original(request)

    monkeypatch.setattr(service_module, "_cold_compile", slow)


class TestConcurrency:
    def test_inflight_dedup_across_clients(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        handle = start_server_thread(service=CompileService())
        try:
            request = CompileRequest(target=bv_circuit(6))
            outcomes = []

            def hammer():
                remote = RemoteCompileService(handle.url, timeout=60)
                outcomes.append(remote.compile_classified(request))
                remote.close()

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            assert started.wait(30)
            time.sleep(0.1)  # let the stragglers join the in-flight future
            release.set()
            for thread in threads:
                thread.join(60)
            statuses = sorted(status for _, _, status in outcomes)
            stats = handle.server.service.stats
            assert stats.counters["misses"] == 1
            assert statuses.count("miss") == 1
            assert set(statuses) <= {"miss", "inflight", "hit"}
            fingerprints = {fp for _, fp, _ in outcomes}
            assert fingerprints == {request.fingerprint()}
            metrics = {str(report.metrics) for report, _, _ in outcomes}
            assert len(metrics) == 1
        finally:
            release.set()
            handle.stop()

    def test_timeout_answers_504_and_is_not_retried(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        handle = start_server_thread(
            service=CompileService(), request_timeout=0.2
        )
        try:
            remote = RemoteCompileService(
                handle.url, timeout=30, retries=3, backoff=0.01
            )
            with pytest.raises(RemoteServiceError) as excinfo:
                remote.compile_request(CompileRequest(target=bv_circuit(6)))
            assert excinfo.value.code == "timeout"
            assert excinfo.value.status == 504
            release.set()
            # only ONE compile ever started: timeout responses are final
            assert handle.server.service.stats.counters["misses"] == 1
        finally:
            release.set()
            handle.stop()

    def test_backpressure_answers_429(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        handle = start_server_thread(
            service=CompileService(), max_concurrency=1
        )
        try:
            blocker = threading.Thread(
                target=lambda: RemoteCompileService(
                    handle.url, timeout=60
                ).compile_request(CompileRequest(target=bv_circuit(6)))
            )
            blocker.start()
            assert started.wait(30)
            rejected = RemoteCompileService(
                handle.url, timeout=30, retries=0
            )
            with pytest.raises(RemoteServiceError) as excinfo:
                rejected.compile_request(CompileRequest(target=bv_circuit(7)))
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.status == 429
            release.set()
            blocker.join(60)
        finally:
            release.set()
            handle.stop()

    def test_repeat_hit_is_not_queued_behind_a_miss(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        handle = start_server_thread(
            service=CompileService(), max_workers=1, max_concurrency=1
        )
        try:
            body = _compile_body()
            release.set()
            _warm(handle, body)
            started.clear()
            release.clear()
            # the one worker and the one compile slot go to a cold miss
            blocker = threading.Thread(
                target=_post_compile, args=(handle, _compile_body(seed=3))
            )
            blocker.start()
            assert started.wait(30)
            status, headers, _ = _post_compile(handle, body)
            assert not release.is_set()
            assert (status, headers["X-CaQR-Cache"]) == (200, "hit")
            release.set()
            blocker.join(60)
        finally:
            release.set()
            handle.stop()

    def test_drain_finishes_inflight_then_rejects(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        _slow_cold_compile(monkeypatch, started, release)
        handle = start_server_thread(service=CompileService())
        outcome = {}

        def inflight():
            remote = RemoteCompileService(handle.url, timeout=60)
            outcome["report"] = remote.compile_request(
                CompileRequest(target=bv_circuit(6))
            )

        worker = threading.Thread(target=inflight)
        worker.start()
        assert started.wait(30)
        handle.server.request_shutdown_threadsafe()
        time.sleep(0.2)  # let the drain flip the flag
        release.set()
        worker.join(60)
        handle.thread.join(30)
        assert not handle.thread.is_alive(), "server failed to drain"
        # the in-flight request completed despite the shutdown
        assert outcome["report"].metrics is not None
        # the socket is gone afterwards
        late = RemoteCompileService(handle.url, timeout=5, retries=0)
        with pytest.raises(RemoteServiceError) as excinfo:
            late.health()
        assert excinfo.value.code == "connect_error"


class TestClientRetry:
    def test_connect_error_after_retries(self):
        remote = RemoteCompileService(
            "http://127.0.0.1:9", timeout=0.5, retries=2, backoff=0.01
        )
        start = time.monotonic()
        with pytest.raises(RemoteServiceError) as excinfo:
            remote.health()
        assert excinfo.value.code == "connect_error"
        assert excinfo.value.status == 0
        # two backoff sleeps happened (jittered 0.01 * 2**n scale)
        assert time.monotonic() - start < 10

    def test_bad_url_rejected(self):
        with pytest.raises(RemoteServiceError):
            RemoteCompileService("ftp://example.com")
        with pytest.raises(RemoteServiceError):
            RemoteCompileService("http://")

"""Fleet layer: hash ring, membership machine, gateway, auth, TLS.

Pure-logic pieces (:class:`HashRing`, :class:`FleetState`) are tested
with fake clocks and synthetic keys; the gateway tests run real servers
and a real gateway on background threads (port 0), same as
``test_net.py``.  The cross-*process* acceptance path (SIGKILL a
backend mid-run, exactly-one cold compile fleet-wide) lives in
``scripts/fleet_smoke.py`` and the CI fleet-smoke job.
"""

import os
import threading
import time

import pytest

from repro.exceptions import RemoteServiceError, ServiceError
from repro.service import (
    CompileRequest,
    CompileService,
    FleetState,
    HashRing,
    RemoteCompileService,
    ring_key,
    start_gateway_thread,
    start_server_thread,
)
from repro.service.cache import DEFAULT_SHARD
from repro.workloads import bv_circuit

from tests.service.test_metrics import parse_prometheus, sample_value

CERTS = os.path.join(os.path.dirname(__file__), "certs")
CERT = os.path.join(CERTS, "cert.pem")
KEY = os.path.join(CERTS, "key.pem")


def _keys(n):
    return [f"key-{i:04d}" for i in range(n)]


def _start_flaky_batch_backend():
    """Stub backend: healthy probes, first ``/v1/compile_batch`` answers
    500, every later one succeeds with pass-through member results."""
    import json
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    state = {"batch_calls": 0}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _reply(self, status, payload):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            self._reply(200, {"ok": True})

        def do_POST(self):
            from repro.service.net.wire import WIRE_SCHEMA_VERSION

            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            state["batch_calls"] += 1
            if state["batch_calls"] == 1:
                self._reply(
                    500,
                    {
                        "schema": WIRE_SCHEMA_VERSION,
                        "error": {"code": "internal", "message": "boom"},
                    },
                )
                return
            results = [
                {"stub": index} for index in range(len(payload["requests"]))
            ]
            self._reply(
                200, {"schema": WIRE_SCHEMA_VERSION, "results": results}
            )

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, state


class TestHashRing:
    def test_deterministic_across_instances(self):
        members = ["http://a:1", "http://b:2", "http://c:3"]
        first = HashRing(members)
        second = HashRing(list(reversed(members)))
        for key in _keys(200):
            assert first.owner(key) == second.owner(key)

    def test_every_member_owns_keys(self):
        ring = HashRing(["http://a:1", "http://b:2", "http://c:3"])
        owners = {ring.owner(key) for key in _keys(500)}
        assert owners == set(ring.members)

    def test_replicas_distinct_and_start_with_owner(self):
        ring = HashRing(["http://a:1", "http://b:2", "http://c:3"])
        for key in _keys(50):
            replicas = ring.replicas(key)
            assert replicas[0] == ring.owner(key)
            assert len(replicas) == len(set(replicas)) == 3

    def test_minimal_movement_on_member_add(self):
        members = [f"http://node-{i}:80" for i in range(4)]
        before = HashRing(members)
        after = HashRing(members + ["http://node-4:80"])
        keys = _keys(2000)
        moved = sum(before.owner(k) != after.owner(k) for k in keys)
        # ideal is 1/5 of keys; allow generous slack over the
        # vnode-sampling variance but far below a full reshuffle
        assert moved / len(keys) < 0.35
        # every key that moved, moved to the new member
        for key in keys:
            if before.owner(key) != after.owner(key):
                assert after.owner(key) == "http://node-4:80"

    def test_minimal_movement_on_member_removal(self):
        members = [f"http://node-{i}:80" for i in range(4)]
        before = HashRing(members)
        after = HashRing(members[:-1])
        keys = _keys(2000)
        for key in keys:
            if before.owner(key) != members[-1]:
                # keys not owned by the removed member never move
                assert after.owner(key) == before.owner(key)

    def test_empty_ring(self):
        ring = HashRing([])
        assert ring.owner("anything") is None
        assert ring.replicas("anything") == []

    def test_ring_key_prefers_shard(self):
        assert ring_key("sharddigest", "fp") == "sharddigest"
        assert ring_key(DEFAULT_SHARD, "fp") == "fp"


class TestFleetState:
    def _fleet(self, **kwargs):
        kwargs.setdefault("mark_down_after", 3)
        kwargs.setdefault("probe_interval", 10.0)
        return FleetState(["http://a:1", "http://b:2"], **kwargs)

    def test_mark_down_after_consecutive_failures(self):
        fleet = self._fleet()
        assert not fleet.record_failure("http://a:1", now=0.0)
        assert not fleet.record_failure("http://a:1", now=1.0)
        # third consecutive failure crosses the threshold: ring changes
        assert fleet.record_failure("http://a:1", now=2.0)
        assert list(fleet.up_members()) == ["http://b:2"]
        assert fleet.ring().members == ("http://b:2",)
        assert fleet.health["http://a:1"].marked_down == 1

    def test_success_resets_failure_streak(self):
        fleet = self._fleet()
        fleet.record_failure("http://a:1", now=0.0)
        fleet.record_failure("http://a:1", now=1.0)
        fleet.record_success("http://a:1", now=2.0)
        assert not fleet.record_failure("http://a:1", now=3.0)
        assert "http://a:1" in fleet.up_members()

    def test_reprobe_brings_member_back(self):
        fleet = self._fleet()
        for t in range(3):
            fleet.record_failure("http://a:1", now=float(t))
        assert "http://a:1" not in fleet.up_members()
        # rejoin changes the topology exactly once
        assert fleet.record_success("http://a:1", now=10.0)
        assert not fleet.record_success("http://a:1", now=11.0)
        assert sorted(fleet.up_members()) == ["http://a:1", "http://b:2"]

    def test_down_member_due_for_reprobe(self):
        fleet = self._fleet(probe_interval=5.0)
        for t in range(3):
            fleet.record_failure("http://a:1", now=float(t))
        next_probe = fleet.health["http://a:1"].next_probe
        assert next_probe > 2.0
        assert "http://a:1" not in fleet.due(next_probe - 0.01)
        assert "http://a:1" in fleet.due(next_probe + 0.01)

    def test_jitter_is_deterministic(self):
        one = self._fleet(seed=7)
        two = self._fleet(seed=7)
        for t in range(3):
            one.record_failure("http://a:1", now=float(t))
            two.record_failure("http://a:1", now=float(t))
        assert (
            one.health["http://a:1"].next_probe
            == two.health["http://a:1"].next_probe
        )

    def test_ring_moves_counted(self):
        fleet = self._fleet()
        assert fleet.ring_moves == 0
        for t in range(3):
            fleet.record_failure("http://a:1", now=float(t))
        assert fleet.ring_moves > 0

    def test_unknown_member_rejected(self):
        fleet = self._fleet()
        with pytest.raises(ServiceError):
            fleet.record_failure("http://nope:9", now=0.0)


@pytest.fixture
def fleet_pair():
    servers = [start_server_thread(service=CompileService()) for _ in range(2)]
    gateway = start_gateway_thread(
        backends=[h.url for h in servers], probe_interval=0.2
    )
    yield servers, gateway
    gateway.stop()
    for handle in servers:
        handle.stop()


class TestGateway:
    def test_single_cold_compile_across_fleet(self, fleet_pair):
        servers, gateway = fleet_pair
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            first = client.compile(bv_circuit(5))
            second = client.compile(bv_circuit(5))
        assert not first.from_cache and second.from_cache
        assert first.metrics == second.metrics
        misses = sum(
            h.server.service.stats.counters.get("misses", 0) for h in servers
        )
        assert misses == 1

    def test_distinct_keys_spread_and_both_serve(self, fleet_pair):
        servers, gateway = fleet_pair
        ring = HashRing([h.url for h in servers])
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            for width in range(3, 9):
                request = CompileRequest(target=bv_circuit(width))
                expected = ring.owner(
                    ring_key(request.shard(), request.fingerprint())
                )
                client.compile(bv_circuit(width))
                served = {
                    h.url: h.server.service.stats.counters.get("misses", 0)
                    for h in servers
                }
                # each cold compile landed exactly where the ring says
                assert served[expected] >= 1

    def test_gateway_health_and_stats(self, fleet_pair):
        servers, gateway = fleet_pair
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            client.compile(bv_circuit(5))
            health = client.health()
            assert health["gateway"] is True
            assert sorted(health["fleet"]["up"]) == sorted(
                h.url for h in servers
            )
            stats = client.stats()
        assert set(stats["backends"]) == {h.url for h in servers}
        assert stats["fleet"]["counters"].get("requests", 0) >= 1
        assert "gateway" in stats

    def test_gateway_metrics_parse_with_backend_labels(self, fleet_pair):
        servers, gateway = fleet_pair
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            client.compile(bv_circuit(5))
            client.compile(bv_circuit(5))
            body = client.metrics()
        types, samples = parse_prometheus(body)
        assert types["caqr_gateway_backend_requests_total"] == "counter"
        assert types["caqr_gateway_backends_up"] == "gauge"
        assert sample_value(samples, "caqr_gateway_backends_up") == 2
        served = [
            labels["backend"]
            for name, labels, _ in samples
            if name == "caqr_gateway_backend_requests_total"
        ]
        assert set(served) <= {h.url for h in servers}
        for url in {h.url for h in servers}:
            assert (
                sample_value(samples, "caqr_gateway_backend_up", backend=url)
                == 1
            )

    def test_invalidate_broadcasts(self, fleet_pair):
        servers, gateway = fleet_pair
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            report = client.compile(bv_circuit(5))
            assert not report.from_cache
            request = CompileRequest(target=bv_circuit(5))
            assert client.invalidate(request.fingerprint())
            # entry is gone on every backend: the next compile is cold
            again = client.compile(bv_circuit(5))
            assert not again.from_cache

    def test_batch_through_gateway(self, fleet_pair):
        _, gateway = fleet_pair
        requests = [CompileRequest(target=bv_circuit(w)) for w in (3, 4, 5)]
        with RemoteCompileService(gateway.url, backoff=0.01) as client:
            reports = client.compile_batch(requests)
            direct = [client.compile_request(r) for r in requests]
        assert len(reports) == 3
        for batch_report, single in zip(reports, direct):
            assert batch_report.metrics == single.metrics

    def test_duplicate_backends_rejected(self):
        from repro.service import GatewayServer

        with pytest.raises(ServiceError):
            GatewayServer(["http://a:1", "http://a:1"])
        with pytest.raises(ServiceError):
            GatewayServer([])

    def test_failed_sub_batch_retries_on_next_replica(self):
        """A sub-batch whose whole owner-first walk fails is retried once
        (skipping the failing backend) before the error surfaces, and the
        retry is counted as ``batch_retries``."""
        import http.client
        import json

        from repro.service.net.wire import WIRE_SCHEMA_VERSION, request_to_wire

        stubs = [_start_flaky_batch_backend() for _ in range(2)]
        urls = [f"http://127.0.0.1:{server.server_address[1]}" for server, _ in stubs]
        gateway = start_gateway_thread(backends=urls, probe_interval=600.0)
        try:
            envelope = {
                "schema": WIRE_SCHEMA_VERSION,
                "requests": [
                    request_to_wire(CompileRequest(target=bv_circuit(4)))
                ],
                "parallel": False,
            }
            host, port = gateway.url.split("//")[1].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request(
                "POST",
                "/v1/compile_batch",
                json.dumps(envelope).encode(),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            # both stubs fail their first batch call, so the owner-first
            # walk dies twice; the retry pass lands on a now-warmed stub
            assert response.status == 200
            assert payload["results"] == [{"stub": 0}]
            assert gateway.gateway.stats.counters.get("batch_retries") == 1
            calls = sum(state["batch_calls"] for _, state in stubs)
            assert calls == 3
        finally:
            gateway.stop()
            for server, _ in stubs:
                server.shutdown()
                server.server_close()


class TestPeerFill:
    def test_rehomed_key_fills_from_previous_holder(self):
        servers = [
            start_server_thread(service=CompileService()) for _ in range(2)
        ]
        urls = [h.url for h in servers]
        # long probe interval: the test drives membership by hand
        gateway = start_gateway_thread(backends=urls, probe_interval=600.0)
        try:
            ring = HashRing(urls)
            # a circuit whose full-ring owner is a specific member; with
            # bv widths 3..16 both members own at least one key
            by_owner = {}
            for width in range(3, 17):
                request = CompileRequest(target=bv_circuit(width))
                rk = ring_key(request.shard(), request.fingerprint())
                by_owner.setdefault(ring.owner(rk), width)
                if len(by_owner) == 2:
                    break
            assert len(by_owner) == 2
            owner_url = urls[0]
            other_url = urls[1]
            width = by_owner[owner_url]

            # every member starts due for a probe, so the prober's
            # startup round is in flight now; let it land first, or its
            # late success would rejoin the owner marked down below
            fleet = gateway.gateway.fleet
            deadline = time.monotonic() + 30.0
            while any(fleet.health[url].next_probe == 0.0 for url in urls):
                assert time.monotonic() < deadline, "startup probes never landed"
                time.sleep(0.01)

            # take the real owner out of the ring: three failures.
            # Timestamps must be real monotonic time — the prober
            # compares next_probe against time.monotonic(), and a fake
            # epoch would make the downed member instantly due for a
            # re-probe that rejoins it mid-test.
            for _ in range(3):
                gateway.gateway.fleet.record_failure(
                    owner_url, time.monotonic()
                )
            assert list(gateway.gateway.fleet.up_members()) == [other_url]

            with RemoteCompileService(gateway.url, backoff=0.01) as client:
                cold = client.compile(bv_circuit(width))
                assert not cold.from_cache  # compiled on the stand-in

                # the real owner rejoins; the key re-homes to it
                gateway.gateway.fleet.record_success(
                    owner_url, time.monotonic()
                )
                warm = client.compile(bv_circuit(width))
                assert warm.from_cache
                assert warm.metrics == cold.metrics

            # served via peer fill, not a second compile
            assert gateway.gateway.stats.counters.get("peer_fills", 0) == 1
            misses = sum(
                h.server.service.stats.counters.get("misses", 0)
                for h in servers
            )
            assert misses == 1
            # the new owner now holds the entry: its cache was filled
            owner_handle = servers[urls.index(owner_url)]
            assert (
                owner_handle.server.service.stats.counters.get(
                    "cache_fills", 0
                )
                == 1
            )
        finally:
            gateway.stop()
            for handle in servers:
                handle.stop()


class TestAuth:
    def test_server_requires_token(self):
        handle = start_server_thread(
            service=CompileService(), auth_token="s3cret"
        )
        try:
            with RemoteCompileService(handle.url, backoff=0.01) as anon:
                # health stays open for load-balancer probes
                assert anon.health()["status"] in ("ok", "draining")
                with pytest.raises(RemoteServiceError) as err:
                    anon.compile(bv_circuit(5))
                assert err.value.code == "unauthorized"
            with RemoteCompileService(
                handle.url, token="s3cret", backoff=0.01
            ) as authed:
                assert not authed.compile(bv_circuit(5)).from_cache
        finally:
            handle.stop()

    def test_gateway_passes_client_token_through(self):
        server = start_server_thread(
            service=CompileService(), auth_token="s3cret"
        )
        gateway = start_gateway_thread(
            backends=[server.url], auth_token="s3cret", probe_interval=0.2
        )
        try:
            with RemoteCompileService(gateway.url, backoff=0.01) as anon:
                with pytest.raises(RemoteServiceError) as err:
                    anon.compile(bv_circuit(5))
                assert err.value.code == "unauthorized"
            with RemoteCompileService(
                gateway.url, token="s3cret", backoff=0.01
            ) as authed:
                report = authed.compile(bv_circuit(5))
                assert not report.from_cache
        finally:
            gateway.stop()
            server.stop()

    def test_gateway_backend_token_override(self):
        server = start_server_thread(
            service=CompileService(), auth_token="backend-only"
        )
        gateway = start_gateway_thread(
            backends=[server.url],
            backend_token="backend-only",
            probe_interval=0.2,
        )
        try:
            # the gateway itself is open; it authenticates to the backend
            with RemoteCompileService(gateway.url, backoff=0.01) as client:
                assert not client.compile(bv_circuit(5)).from_cache
        finally:
            gateway.stop()
            server.stop()

    def test_env_var_supplies_token(self, monkeypatch):
        monkeypatch.setenv("CAQR_AUTH_TOKEN", "from-env")
        handle = start_server_thread(service=CompileService())
        try:
            assert handle.server.auth_token == "from-env"
            with RemoteCompileService(handle.url, backoff=0.01) as client:
                assert client.token == "from-env"
                assert not client.compile(bv_circuit(5)).from_cache
        finally:
            handle.stop()


class TestTLS:
    def test_server_tls_roundtrip(self):
        handle = start_server_thread(
            service=CompileService(), tls_cert=CERT, tls_key=KEY
        )
        try:
            assert handle.url.startswith("https://")
            with RemoteCompileService(
                handle.url, tls_ca=CERT, backoff=0.01
            ) as client:
                assert client.health()["status"] == "ok"
                report = client.compile(bv_circuit(5))
                assert not report.from_cache
        finally:
            handle.stop()

    def test_gateway_tls_listener_and_tls_backend(self):
        server = start_server_thread(
            service=CompileService(), tls_cert=CERT, tls_key=KEY
        )
        gateway = start_gateway_thread(
            backends=[server.url],
            tls_cert=CERT,
            tls_key=KEY,
            backend_ca=CERT,
            probe_interval=0.2,
        )
        try:
            assert gateway.url.startswith("https://")
            with RemoteCompileService(
                gateway.url, tls_ca=CERT, backoff=0.01
            ) as client:
                first = client.compile(bv_circuit(5))
                second = client.compile(bv_circuit(5))
            assert not first.from_cache and second.from_cache
        finally:
            gateway.stop()
            server.stop()

    def test_mismatched_tls_args_rejected(self):
        from repro.service import CompileServer

        with pytest.raises(ServiceError):
            CompileServer(CompileService(), tls_cert=CERT)

    def test_untrusted_cert_rejected_and_insecure_escape_hatch(self):
        handle = start_server_thread(
            service=CompileService(), tls_cert=CERT, tls_key=KEY
        )
        try:
            with RemoteCompileService(
                handle.url, backoff=0.01, retries=0
            ) as strict:
                with pytest.raises(RemoteServiceError):
                    strict.health()
            with RemoteCompileService(
                handle.url, tls_insecure=True, backoff=0.01
            ) as lax:
                assert lax.health()["status"] == "ok"
        finally:
            handle.stop()

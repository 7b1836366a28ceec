"""Consistent-hash HTTP gateway fronting a fleet of compile servers.

``repro gateway --backend http://host:port ...`` runs one of these in
front of N ``repro serve`` processes.  Clients keep speaking the exact
:mod:`repro.service.net.wire` protocol — the gateway is a drop-in URL —
while placement, failover, and fleet-wide cold-compile dedup happen
here:

* **consistent-hash routing** — every ``/v1/compile`` body is mapped to
  its :func:`~repro.service.fleet.ring_key` (calibration shard digest
  when the request carries a backend, fingerprint otherwise) and routed
  on a sha256 :class:`~repro.service.fleet.HashRing` with virtual
  nodes.  Identical requests from any number of client processes land
  on the same server, whose in-flight dedup table makes the fleet-wide
  cold compile happen **exactly once**.  A body-digest LRU makes the
  mapping one sha256 per repeat — the gateway never re-decodes a
  circuit it has already routed;
* **health-driven membership** — a background prober hits each
  backend's ``/v1/health`` on a jittered interval; ``mark_down_after``
  consecutive failures (probe or proxied request) take a backend out of
  the ring deterministically, and the next successful re-probe puts it
  back (:class:`~repro.service.fleet.FleetState`);
* **retry-on-next-replica** — compile requests are idempotent
  (content-addressed), so a connect failure / ``429`` / ``503`` walks
  to the next distinct replica on the ring instead of failing the
  client.  ``504 timeout`` and deterministic ``4xx`` answers pass
  through untouched;
* **peer cache fill** — after a failover or rejoin re-homes a key, the
  gateway remembers which backend last served it: the warm envelope is
  fetched from that peer with an ``X-CaQR-Cache-Only`` probe, replayed
  to the client, and pushed into the new owner via ``POST
  /v1/cache/fill`` — a node death never causes a recompile storm;
* **bounded keep-alive pools** — one connection pool per backend
  (``pool_size`` sockets), stdlib asyncio streams, TLS-capable;
* **aggregated observability** — ``GET /v1/stats`` merges every live
  backend's snapshot (plus a summed ``fleet`` view); ``GET
  /v1/metrics`` exports the gateway's own counters with per-backend
  labels (``caqr_backend_requests_total{backend=...}``, ``peer_fills``,
  ``marked_down``, ``ring_moves``) in the same Prometheus text format
  as the servers.

Auth/TLS mirror the server: ``auth_token`` gates every gateway route
except ``/v1/health``; the client's ``Authorization`` header is passed
through to backends unless ``backend_token`` overrides it;
``tls_cert``/``tls_key`` wrap the gateway listener, and ``https://``
backend URLs are dialed with stdlib TLS (``backend_ca`` /
``backend_tls_insecure`` control verification).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import ssl
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.exceptions import ServiceError
from repro.service.fleet import DEFAULT_VNODES, FleetState, ring_key
from repro.service.metrics import render_prometheus
from repro.service.net.app import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_BODY,
    AppHandle,
    HttpApp,
    Lru,
    Reply,
    json_body,
    start_app_thread,
)
from repro.service.net.http1 import MAX_HEADER_BYTES, read_response, send_request
from repro.service.net.server import CACHE_ONLY_HEADER
from repro.service.net.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    batch_from_wire,
    error_to_wire,
    request_from_wire,
)
from repro.stats import Stats

__all__ = [
    "DEFAULT_GATEWAY_PORT",
    "GatewayServer",
    "GatewayHandle",
    "start_gateway_thread",
    "run_gateway",
]

DEFAULT_GATEWAY_PORT = 8786
DEFAULT_POOL_SIZE = 16
DEFAULT_PROBE_INTERVAL = 2.0
DEFAULT_PROBE_TIMEOUT = 3.0
DEFAULT_REQUEST_TIMEOUT = 600.0
DEFAULT_KEY_CACHE_ENTRIES = 4096
_LAST_SERVED_ENTRIES = 65536
_PROBER_TICK = 0.25

#: Backend answers worth walking to the next replica: admission-control
#: and drain rejections (the next server may have room) plus ``5xx``
#: except ``504`` (a timeout means a compile is *still running* there —
#: piling the same fingerprint onto a second server would double-pay).
_RETRY_STATUSES = frozenset({429, 500, 502, 503})

#: Response headers replayed to the client verbatim.
_PASSTHROUGH_HEADERS = (
    "x-caqr-fingerprint",
    "x-caqr-cache",
    "x-caqr-strategy",
)


class _BackendDown(Exception):
    """One backend could not produce a response (connect/read failure)."""


class _BackendPool:
    """Bounded keep-alive connection pool to one backend."""

    def __init__(
        self,
        base_url: str,
        limit: int,
        timeout: float,
        ssl_context: Optional[ssl.SSLContext],
    ):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ServiceError(f"bad backend url {base_url!r}")
        self.base_url = base_url
        self.host = parts.hostname
        self.port = parts.port or (443 if parts.scheme == "https" else 80)
        self.timeout = timeout
        self._ssl = ssl_context if parts.scheme == "https" else None
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._slots = asyncio.Semaphore(limit)

    async def request(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[bytes],
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round-trip; raises :class:`_BackendDown` on any failure."""
        budget = self.timeout if timeout is None else timeout
        await self._slots.acquire()
        conn: Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = None
        try:
            conn = await self._acquire(budget)
            reader, writer = conn
            await asyncio.wait_for(
                send_request(
                    writer, method, path, f"{self.host}:{self.port}", headers, body
                ),
                budget,
            )
            status, resp_headers, resp_body = await asyncio.wait_for(
                read_response(reader), budget
            )
        except (OSError, ConnectionError, asyncio.TimeoutError, ssl.SSLError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            if conn is not None:
                self._discard(conn)
            raise _BackendDown(
                f"{self.base_url}: {type(exc).__name__}: {exc}"
            ) from exc
        else:
            if resp_headers.get("connection", "").lower() == "close":
                self._discard(conn)
            else:
                self._idle.append(conn)
            return status, resp_headers, resp_body
        finally:
            self._slots.release()

    async def _acquire(
        self, budget: float
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._idle:
            reader, writer = self._idle.pop()
            if writer.is_closing() or reader.at_eof():
                self._discard((reader, writer))
                continue
            return reader, writer
        return await asyncio.wait_for(
            asyncio.open_connection(
                self.host,
                self.port,
                ssl=self._ssl,
                limit=MAX_HEADER_BYTES,
                server_hostname=self.host if self._ssl else None,
            ),
            budget,
        )

    def _discard(
        self, conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        _, writer = conn
        try:
            writer.close()
        except Exception:
            pass

    def close(self) -> None:
        while self._idle:
            self._discard(self._idle.pop())



class GatewayServer(HttpApp):
    """The consistent-hash fleet gateway (see the module docstring).

    Args:
        backends: base URLs of the ``repro serve`` processes to front
            (at least one; ``http://`` or ``https://``).
        host / port: bind address (``port=0`` picks a free port).
        vnodes: virtual nodes per backend on the hash ring.
        mark_down_after: consecutive failures before a backend leaves
            the ring.
        probe_interval / probe_jitter: health re-probe cadence.
        pool_size: keep-alive sockets per backend.
        request_timeout: per-proxied-request budget in seconds.
        auth_token: bearer token required on every gateway route except
            ``/v1/health`` (``$CAQR_AUTH_TOKEN`` when ``None``).
        backend_token: bearer token the gateway presents to backends;
            default: pass the client's ``Authorization`` header through.
        tls_cert / tls_key: TLS for the gateway's own listener.
        backend_ca / backend_tls_insecure: verification knobs for
            ``https://`` backends.

    Request bodies are capped at the server's ``DEFAULT_MAX_BODY``
    (``413``), and shutdown drains in-flight requests for up to
    ``DEFAULT_DRAIN_TIMEOUT`` seconds, exactly as ``repro serve`` does.
    """

    kind = "gateway"

    def __init__(
        self,
        backends: Sequence[str],
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        vnodes: int = DEFAULT_VNODES,
        mark_down_after: int = 3,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        probe_jitter: float = 0.5,
        pool_size: int = DEFAULT_POOL_SIZE,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        key_cache_entries: int = DEFAULT_KEY_CACHE_ENTRIES,
        auth_token: Optional[str] = None,
        backend_token: Optional[str] = None,
        tls_cert: Optional[str] = None,
        tls_key: Optional[str] = None,
        backend_ca: Optional[str] = None,
        backend_tls_insecure: bool = False,
        stats: Optional[Stats] = None,
    ):
        cleaned = [url.rstrip("/") for url in backends]
        if not cleaned:
            raise ServiceError("gateway needs at least one --backend URL")
        if len(set(cleaned)) != len(cleaned):
            raise ServiceError("duplicate backend URLs")
        super().__init__(
            routes={
                "/v1/stats": ("GET", self._handle_stats),
                "/v1/compile": ("POST", self._handle_compile),
                "/v1/compile_batch": ("POST", self._handle_batch),
                "/v1/cache/invalidate": ("POST", self._handle_invalidate),
            },
            stats=stats if stats is not None else Stats(),
            host=host,
            port=port,
            max_body=DEFAULT_MAX_BODY,
            drain_timeout=DEFAULT_DRAIN_TIMEOUT,
            auth_token=auth_token,
            tls_cert=tls_cert,
            tls_key=tls_key,
        )
        self.backends = tuple(cleaned)
        self.request_timeout = request_timeout
        self.probe_timeout = probe_timeout
        self.backend_token = backend_token
        self.fleet = FleetState(
            cleaned,
            vnodes=vnodes,
            mark_down_after=mark_down_after,
            probe_interval=probe_interval,
            probe_jitter=probe_jitter,
        )
        backend_ssl: Optional[ssl.SSLContext] = None
        if any(url.startswith("https://") for url in cleaned):
            backend_ssl = ssl.create_default_context(cafile=backend_ca)
            if backend_tls_insecure:
                backend_ssl.check_hostname = False
                backend_ssl.verify_mode = ssl.CERT_NONE
        self._pools = {
            url: _BackendPool(url, pool_size, request_timeout, backend_ssl)
            for url in cleaned
        }
        # body digest -> (fingerprint, shard): one decode per unique body
        self._key_cache = Lru(key_cache_entries)
        # ring key -> backend that last served it (peer-fill source)
        self._last_served = Lru(_LAST_SERVED_ENTRIES)
        self._fingerprint_pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="caqr-gateway-fp"
        )
        self._counted_ring_moves = 0
        self._counted_marked_down: Dict[str, int] = {url: 0 for url in cleaned}
        self._prober_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "GatewayServer":
        await super().start()
        self._prober_task = self._loop.create_task(self._prober())
        return self

    async def _close(self) -> None:
        if self._prober_task is not None:
            self._prober_task.cancel()
            try:
                await self._prober_task
            except (asyncio.CancelledError, Exception):
                pass
        for pool in self._pools.values():
            pool.close()
        self._fingerprint_pool.shutdown(wait=False)

    # -- membership ------------------------------------------------------------

    async def _prober(self) -> None:
        """Background health loop driving :class:`FleetState`."""
        while True:
            now = time.monotonic()
            due = self.fleet.due(now)
            if due:
                await asyncio.gather(
                    *(self._probe_one(url) for url in due),
                    return_exceptions=True,
                )
            await asyncio.sleep(_PROBER_TICK)

    async def _probe_one(self, url: str) -> None:
        try:
            status, _, _ = await self._pools[url].request(
                "GET", "/v1/health", {}, None, timeout=self.probe_timeout
            )
            ok = status == 200
        except _BackendDown:
            ok = False
        self._record_outcome(url, ok)

    def _record_outcome(self, url: str, ok: bool) -> None:
        """Feed one probe/request outcome into the membership machine."""
        now = time.monotonic()
        if ok:
            changed = self.fleet.record_success(url, now)
        else:
            changed = self.fleet.record_failure(url, now)
        if changed:
            self._sync_fleet_counters()

    def _sync_fleet_counters(self) -> None:
        """Mirror monotonic fleet telemetry into the stats counters."""
        moved = self.fleet.ring_moves - self._counted_ring_moves
        if moved:
            self.stats.count("ring_moves", moved)
            self._counted_ring_moves = self.fleet.ring_moves
        for url in self.backends:
            lifetime = self.fleet.health[url].marked_down
            delta = lifetime - self._counted_marked_down[url]
            if delta:
                self.stats.count(f"marked_down:{url}", delta)
                self._counted_marked_down[url] = lifetime

    # -- routing ---------------------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "status": "ok",
            "gateway": True,
            "uptime_s": self.uptime_s(),
            "fleet": self.fleet.summary(),
        }

    def _backend_headers(self, headers: Dict[str, str]) -> Dict[str, str]:
        """Headers the gateway presents to a backend."""
        out = {"Content-Type": "application/json"}
        if self.backend_token:
            out["Authorization"] = f"Bearer {self.backend_token}"
        elif "authorization" in headers:
            out["Authorization"] = headers["authorization"]
        return out

    # -- placement -------------------------------------------------------------

    async def _placement(self, body: bytes) -> Tuple[str, str, str]:
        """``(fingerprint, shard, ring key)`` for one compile body.

        Repeat bodies are one sha256 + LRU hit; new bodies decode the
        envelope off-loop (the only place the gateway touches circuit
        JSON).
        """
        digest = hashlib.sha256(body).hexdigest()
        cached = self._key_cache.get(digest)
        if cached is not None:
            self.stats.count("key_cache_hits")
            fingerprint, shard = cached
            return fingerprint, shard, ring_key(shard, fingerprint)
        self.stats.count("key_cache_misses")
        loop = asyncio.get_running_loop()
        fingerprint, shard = await loop.run_in_executor(
            self._fingerprint_pool, self._derive_key, body
        )
        self._key_cache.put(digest, (fingerprint, shard))
        return fingerprint, shard, ring_key(shard, fingerprint)

    @staticmethod
    def _derive_key(body: bytes) -> Tuple[str, str]:
        request = request_from_wire(json_body(body))
        return request.fingerprint(), request.shard()

    # -- forwarding ------------------------------------------------------------

    async def _forward(
        self,
        replicas: Sequence[str],
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[bytes],
    ) -> Tuple[str, int, Dict[str, str], bytes]:
        """Try each replica in ring order; first final answer wins.

        Returns ``(backend, status, headers, body)``.  Raises
        :class:`_BackendDown` when every replica failed.
        """
        last_error: Optional[_BackendDown] = None
        for index, backend in enumerate(replicas):
            self.stats.count(f"backend_requests:{backend}")
            if index:
                self.stats.count(f"backend_retries:{backend}")
            started = time.perf_counter()
            try:
                status, resp_headers, resp_body = await self._call(
                    backend, method, path, headers, body
                )
            except _BackendDown as exc:
                self.stats.count(f"backend_errors:{backend}")
                last_error = exc
                continue
            self.stats.add_time(
                f"backend_latency:{backend}", time.perf_counter() - started
            )
            if status in _RETRY_STATUSES and index + 1 < len(replicas):
                self.stats.count(f"backend_errors:{backend}")
                continue
            return backend, status, resp_headers, resp_body
        raise last_error if last_error is not None else _BackendDown(
            "no replica produced a response"
        )

    async def _call(
        self,
        url: str,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[bytes],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One backend round-trip whose outcome feeds the membership machine."""
        try:
            answer = await self._pools[url].request(method, path, headers, body)
        except _BackendDown:
            self._record_outcome(url, False)
            raise
        self._record_outcome(url, True)
        return answer

    async def _broadcast(
        self, method: str, path: str, headers: Dict[str, str], body: Optional[bytes]
    ) -> Dict[str, Any]:
        """Send one request to every live backend at once.

        Returns ``{url: decoded 200 body, or an error string}``.
        """
        fwd_headers = self._backend_headers(headers)

        async def _one(url):
            try:
                status, _, resp_body = await self._call(
                    url, method, path, fwd_headers, body
                )
                if status != 200:
                    return url, f"status {status}"
                return url, json.loads(resp_body)
            except (_BackendDown, ValueError) as exc:
                return url, str(exc)

        up = self.fleet.up_members()
        return dict(await asyncio.gather(*(_one(url) for url in up)))

    def _replicas_for(self, rk: str) -> List[str]:
        return self.fleet.ring().replicas(rk)

    def _no_backend(self, message: str = "every backend is marked down") -> Reply:
        self.stats.count("no_backend")
        return 503, error_to_wire("no_backend", message), {"Retry-After": "1"}

    @staticmethod
    def _client_reply(
        status: int, resp_headers: Dict[str, str], resp_body: bytes
    ) -> Reply:
        extra: Dict[str, str] = {}
        content_type = resp_headers.get("content-type")
        if content_type:
            extra["Content-Type"] = content_type
        for name in _PASSTHROUGH_HEADERS:
            value = resp_headers.get(name)
            if value is not None:
                extra["-".join(p.capitalize() for p in name.split("-"))] = value
        return status, resp_body, extra

    # -- endpoints -------------------------------------------------------------

    async def _handle_compile(
        self, headers: Dict[str, str], body: bytes
    ) -> Reply:
        _, shard, rk = await self._placement(body)
        replicas = self._replicas_for(rk)
        if not replicas:
            return self._no_backend()
        fwd_headers = self._backend_headers(headers)
        if headers.get(CACHE_ONLY_HEADER):
            fwd_headers[CACHE_ONLY_HEADER] = headers[CACHE_ONLY_HEADER]
        owner = replicas[0]
        filled = await self._maybe_peer_fill(rk, shard, owner, fwd_headers, body)
        if filled is not None:
            return filled
        try:
            backend, status, resp_headers, resp_body = await self._forward(
                replicas, "POST", "/v1/compile", fwd_headers, body
            )
        except _BackendDown as exc:
            return self._no_backend(str(exc))
        if status == 200:
            self._last_served.put(rk, backend)
            cache_status = resp_headers.get("x-caqr-cache", "")
            if cache_status == "miss":
                self.stats.count(f"fleet_misses:{backend}")
            elif cache_status:
                self.stats.count(f"fleet_hits:{backend}")
            self.stats.count(f"fleet_requests:{backend}")
        return self._client_reply(status, resp_headers, resp_body)

    async def _maybe_peer_fill(
        self,
        rk: str,
        shard: str,
        owner: str,
        fwd_headers: Dict[str, str],
        body: bytes,
    ) -> Optional[Reply]:
        """Serve a re-homed key from its previous holder's warm cache.

        When the ring owner changed since the key was last served (a
        backend died or rejoined), the previous holder is probed
        cache-only; a warm envelope is replayed to the client and pushed
        into the new owner so the fleet never recompiles a key it
        already paid for.  Returns ``None`` when the normal forwarding
        path should run instead.
        """
        previous = self._last_served.get(rk)
        if (
            previous is None
            or previous == owner
            or not self.fleet.health[previous].up
        ):
            return None
        probe_headers = dict(fwd_headers)
        probe_headers[CACHE_ONLY_HEADER] = "1"
        try:
            status, resp_headers, resp_body = await self._call(
                previous, "POST", "/v1/compile", probe_headers, body
            )
        except _BackendDown:
            return None
        if status != 200:
            # the peer lost the entry too (evicted, TTL) — compile fresh
            self._last_served.put(rk, owner)
            return None
        self.stats.count("peer_fills")
        self.stats.count(f"peer_fills:{owner}")
        await self._replay_fill(rk, shard, owner, fwd_headers, resp_body)
        return self._client_reply(status, resp_headers, resp_body)

    async def _replay_fill(
        self,
        rk: str,
        shard: str,
        owner: str,
        fwd_headers: Dict[str, str],
        envelope_body: bytes,
    ) -> None:
        """Push a peer's warm envelope into the key's new ring owner."""
        try:
            envelope = json.loads(envelope_body)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        fill = {
            "schema": WIRE_SCHEMA_VERSION,
            "shard": shard,
            "envelope": envelope,
        }
        try:
            status, _, _ = await self._call(
                owner, "POST", "/v1/cache/fill", fwd_headers, json.dumps(fill).encode()
            )
        except _BackendDown:
            return
        if status == 200:
            self._last_served.put(rk, owner)

    async def _handle_batch(self, headers: Dict[str, str], body: bytes) -> Reply:
        members, parallel = batch_from_wire(json.loads(body) if body else None)
        fwd_headers = self._backend_headers(headers)
        # place every member, then split the batch by ring owner so each
        # sub-batch lands where its entries colocate
        placements: List[Tuple[int, Dict[str, Any], str]] = []
        for index, member in enumerate(members):
            member_body = json.dumps(member).encode()
            _, _, rk = await self._placement(member_body)
            placements.append((index, member, rk))
        groups: "OrderedDict[str, List[Tuple[int, Dict[str, Any], str]]]" = (
            OrderedDict()
        )
        for index, member, rk in placements:
            replicas = self._replicas_for(rk)
            if not replicas:
                return self._no_backend()
            groups.setdefault(replicas[0], []).append((index, member, rk))

        async def _one_group(owner, entries):
            sub = {
                "schema": WIRE_SCHEMA_VERSION,
                "requests": [member for _, member, _ in entries],
                "parallel": parallel,
            }
            sub_body = json.dumps(sub).encode()
            rk0 = entries[0][2]
            replicas = self._replicas_for(rk0)
            if replicas and replicas[0] != owner and owner in replicas:
                # keep the placement owner first even if the ring moved
                replicas = [owner] + [r for r in replicas if r != owner]
            backend: Optional[str] = None
            status = 0
            resp_headers: Dict[str, str] = {}
            resp_body = b""
            walk_error: Optional[_BackendDown] = None
            try:
                backend, status, resp_headers, resp_body = await self._forward(
                    replicas or [owner],
                    "POST",
                    "/v1/compile_batch",
                    fwd_headers,
                    sub_body,
                )
            except _BackendDown as exc:
                walk_error = exc
            if walk_error is not None or status in _RETRY_STATUSES:
                # the whole owner-first walk failed.  Re-resolve the ring
                # (the prober may have marked the loser down by now) and
                # retry the sub-batch once, skipping the backend that
                # produced the failure, before surfacing the error.
                retry = [r for r in self._replicas_for(rk0) if r != backend]
                if retry:
                    self.stats.count("batch_retries")
                    self.stats.count(f"batch_retries:{retry[0]}")
                    try:
                        (
                            backend,
                            status,
                            resp_headers,
                            resp_body,
                        ) = await self._forward(
                            retry, "POST", "/v1/compile_batch", fwd_headers, sub_body
                        )
                    except _BackendDown:
                        if walk_error is not None:
                            raise
                        # keep the original error reply: the retry only
                        # upgrades the outcome, never degrades it
                elif walk_error is not None:
                    raise walk_error
            return entries, backend, status, resp_headers, resp_body

        try:
            outcomes = await asyncio.gather(
                *(_one_group(owner, entries) for owner, entries in groups.items())
            )
        except _BackendDown as exc:
            return self._no_backend(str(exc))
        results: List[Optional[Dict[str, Any]]] = [None] * len(members)
        for entries, backend, status, _, resp_body in outcomes:
            if status != 200:
                # propagate the first backend error verbatim
                try:
                    return status, json.loads(resp_body), {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    return status, resp_body, {}
            sub_payload = json.loads(resp_body)
            sub_results = sub_payload.get("results")
            if not isinstance(sub_results, list) or len(sub_results) != len(
                entries
            ):
                raise WireError(f"{backend} answered a malformed batch envelope")
            for (index, _, rk), member_result in zip(entries, sub_results):
                results[index] = member_result
                self._last_served.put(rk, backend)
            self.stats.count(f"fleet_requests:{backend}", len(entries))
        return 200, {"schema": WIRE_SCHEMA_VERSION, "results": results}, {}

    async def _handle_invalidate(
        self, headers: Dict[str, str], body: bytes
    ) -> Reply:
        """Broadcast an invalidation to every live backend."""
        if not self.fleet.up_members():
            return self._no_backend()
        answers = await self._broadcast(
            "POST", "/v1/cache/invalidate", headers, body
        )
        removed = any(
            isinstance(answer, dict)
            and bool(answer.get("invalidated") or answer.get("cleared"))
            for answer in answers.values()
        )
        return (
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "invalidated": removed,
                "cleared": removed,
                "backends": len(answers),
            },
            {},
        )

    async def _handle_stats(self, headers: Dict[str, str], body: bytes) -> Reply:
        """Aggregate ``/v1/stats``: gateway + per-backend + summed fleet."""
        per_backend = {
            url: answer if isinstance(answer, dict) else {"error": answer}
            for url, answer in (
                await self._broadcast("GET", "/v1/stats", headers, None)
            ).items()
        }
        fleet_counters: Dict[str, float] = {}
        for payload in per_backend.values():
            counters = payload.get("stats", {}).get("counters", {})
            if isinstance(counters, dict):
                for name, value in counters.items():
                    if isinstance(value, (int, float)):
                        fleet_counters[name] = fleet_counters.get(name, 0) + value
        return (
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "gateway": {
                    "stats": self._stats_payload(),
                    "uptime_s": self.uptime_s(),
                    "fleet": self.fleet.summary(),
                },
                "backends": per_backend,
                "fleet": {"counters": fleet_counters},
            },
            {},
        )

    def _metrics_body(self) -> bytes:
        snapshot = Stats()
        snapshot.merge(self.stats)
        for url in self.backends:
            snapshot.set_value(
                f"backend_up:{url}", 1.0 if self.fleet.health[url].up else 0.0
            )
        extra = {
            "uptime_seconds": self.uptime_s(),
            "backends": float(len(self.backends)),
            "backends_up": float(len(self.fleet.up_members())),
            "ring_vnodes": float(self.fleet.vnodes),
            "key_cache_entries": float(len(self._key_cache)),
        }
        return render_prometheus(
            snapshot, prefix="caqr_gateway", extra_gauges=extra
        ).encode()


class GatewayHandle(AppHandle):
    """A :class:`GatewayServer` running on a daemon thread (tests)."""

    @property
    def gateway(self) -> GatewayServer:
        return self.app


def start_gateway_thread(ready_timeout: float = 30.0, **kwargs) -> GatewayHandle:
    """Run a :class:`GatewayServer` on a background thread; wait until bound."""
    return start_app_thread(GatewayServer, GatewayHandle, ready_timeout, kwargs)


def run_gateway(backends: Sequence[str], **kwargs: Any) -> int:
    """Blocking entry point behind ``repro gateway``.

    Keyword arguments go to the :class:`GatewayServer` constructor.
    Prints ``serving on <host>:<port>`` once bound (same machine-readable
    line as ``repro serve``), then runs until SIGTERM/SIGINT and drains.
    """
    gateway = GatewayServer(backends, **kwargs)
    return gateway.run_until_signal(
        f" ({len(gateway.backends)} backends)", "gateway stopped"
    )

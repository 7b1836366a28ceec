"""Asyncio HTTP/1.1 front-end for :class:`~repro.service.service.CompileService`.

One ``repro serve`` process owns one compile cache and one in-flight
dedup table; any number of client processes
(:class:`~repro.service.net.client.RemoteCompileService`, or anything
speaking the :mod:`repro.service.net.wire` protocol) share them — the
multi-process form of the in-process service.  Stdlib only: the
listener, connection loop, route prelude, and drain come from the
:class:`~repro.service.net.app.HttpApp` base shared with the gateway;
this module adds the compile endpoints, the worker pool, admission
control, and the encoded-envelope cache.

Endpoints
---------

===========================  ======================================================
``GET  /v1/health``          liveness + ``uptime_s`` / ``inflight`` / ``draining``
                             gauges (always answered, even mid-drain)
``GET  /v1/stats``           :class:`Stats` snapshot + per-shard disk usage
                             + the same process gauges
``GET  /v1/metrics``         Prometheus text format 0.0.4: counters, gauges,
                             timers, and request-latency histograms (answered
                             mid-drain so scrapes survive a rollout)
``POST /v1/compile``         one request envelope -> one response envelope, with
                             ``X-CaQR-Fingerprint``, ``X-CaQR-Cache:
                             hit|miss|inflight`` and ``X-CaQR-Strategy`` headers
``POST /v1/compile_batch``   ``{"requests": [...], "parallel": bool}`` -> results
                             in input order (duplicates folded server-side)
``POST /v1/cache/invalidate``  ``{"fingerprint": ...}`` or ``{"all": true}``
``POST /v1/cache/fill``      replay a peer server's encoded response envelope
                             into this server's cache (gateway peer fill)
===========================  ======================================================

A ``/v1/compile`` carrying the ``X-CaQR-Cache-Only: 1`` header answers
from the cache only (``404 cache_miss`` instead of compiling) — the
gateway's peer-fill probe.  With an ``auth_token`` (or
``$CAQR_AUTH_TOKEN``) every route except ``GET /v1/health`` requires
``Authorization: Bearer <token>`` (``401 unauthorized`` otherwise), and
``tls_cert``/``tls_key`` wrap the listener in stdlib TLS.

Operational behaviour:

* **worker pool** — cold compiles run on a bounded ``ThreadPoolExecutor``
  so the event loop never blocks on QS/SR; the underlying
  ``CompileService`` is thread-safe and folds concurrent identical
  requests onto one compilation regardless of which worker runs it;
* **backpressure** — more than ``max_concurrency`` admitted compiles ->
  ``429 overloaded`` (with ``Retry-After``); bodies past ``max_body`` ->
  ``413 payload_too_large``; requests during drain -> ``503
  shutting_down``;
* **per-request timeout** — a compile past ``request_timeout`` answers
  ``504 timeout``.  The worker thread keeps running (threads cannot be
  killed), so the error code tells clients the request is *still
  executing* and must not be retried — a later identical request will
  join it through the dedup table;
* **graceful drain** — SIGTERM/SIGINT stops accepting connections,
  lets in-flight requests finish (up to ``drain_timeout``), then closes
  remaining keep-alive connections (and the service's persistent worker
  pool) and exits cleanly;
* **encoded-envelope cache** — warm ``/v1/compile`` hits are answered
  from an LRU of pre-serialized response bodies keyed by
  ``(fingerprint, wire schema version)``, skipping ``report_to_dict``
  and JSON encoding entirely (``envelope_hits``); entries drop with the
  underlying cache entry (TTL check on every fast-path hit, explicit
  ``/v1/cache/invalidate``);
* **observability** — every request is timed into fixed-bucket latency
  histograms (``request_latency`` plus per-route), exported by
  ``GET /v1/metrics``, and optionally logged as one JSONL record
  (:mod:`repro.service.reqlog`, ``$CAQR_REQUEST_LOG``).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ReproError, ServiceError
from repro.service.metrics import render_prometheus
from repro.service.net.app import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_BODY,
    AppHandle,
    HttpApp,
    Reply,
    json_body,
    start_app_thread,
)
from repro.service.net.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    batch_from_wire,
    error_to_wire,
    request_from_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.reqlog import RequestLog
from repro.service.serialization import dumps_entry
from repro.service.service import CompileService
from repro.stats import Stats

__all__ = [
    "DEFAULT_PORT",
    "CACHE_ONLY_HEADER",
    "CompileServer",
    "ServerHandle",
    "start_server_thread",
    "run_server",
]

DEFAULT_PORT = 8787
DEFAULT_MAX_CONCURRENCY = 32
DEFAULT_REQUEST_TIMEOUT = 600.0
DEFAULT_ENVELOPE_ENTRIES = 1024

#: Gateway peer-fill probe: a ``/v1/compile`` carrying this header must
#: answer from the cache only — a warm envelope or ``404 cache_miss`` —
#: and never start a compile.
CACHE_ONLY_HEADER = "x-caqr-cache-only"

#: ``CompileReport`` fields whose engine stats are folded into their own
#: Prometheus prefix (``caqr_route_*``, ``caqr_sim_*``,
#: ``caqr_reuse_eval_*``) when a server-side cold compile carries them:
#: route stats from ``min_swap`` compiles, QS evaluation stats from every
#: sweep/reduction, analytic-ESP stats from hardware-mapped compiles.
#: getattr-based: a report field a future schema removes simply goes dark
#: instead of crashing the scrape.
_REPORT_STAT_DOMAINS = (
    ("route", "route_stats"),
    ("sim", "sim_stats"),
    ("reuse_eval", "eval_stats"),
    ("chain", "chain_stats"),
)


class _EnvelopeCache:
    """Thread-safe LRU of pre-encoded response bodies.

    Keys are ``(fingerprint, WIRE_SCHEMA_VERSION)`` so a schema bump
    can never serve a stale envelope shape from a long-lived process.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str) -> Optional[bytes]:
        key = (fingerprint, WIRE_SCHEMA_VERSION)
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
            return body

    def put(self, fingerprint: str, body: bytes) -> None:
        key = (fingerprint, WIRE_SCHEMA_VERSION)
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def invalidate(self, fingerprint: str) -> bool:
        with self._lock:
            return (
                self._entries.pop((fingerprint, WIRE_SCHEMA_VERSION), None)
                is not None
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CompileServer(HttpApp):
    """HTTP/1.1 front-end sharing one :class:`CompileService` across processes.

    Args:
        service: the service to front (default: a fresh memory-only one).
        host / port: bind address; ``port=0`` picks a free port
            (:attr:`port` holds the real one after :meth:`start`).
        max_workers: compile worker threads (default: the service's
            ``max_workers``, i.e. ``os.cpu_count()`` capped at 8).
        max_concurrency: admitted compile requests before ``429``.
        max_body: request body cap in bytes before ``413``.
        request_timeout: seconds before an admitted compile answers
            ``504 timeout`` (the compile keeps running server-side).
        drain_timeout: seconds shutdown waits for in-flight requests.
        envelope_cache_entries: LRU cap of the encoded-envelope cache
            (pre-serialized warm-hit response bodies); ``0`` disables it.
        request_log: structured JSONL request log — a path string, an
            existing :class:`~repro.service.reqlog.RequestLog`, or
            ``None`` to honour ``$CAQR_REQUEST_LOG`` (no logging when
            that is unset too).
        auth_token: bearer token every request except ``GET /v1/health``
            must carry (``Authorization: Bearer <token>``); wrong or
            missing -> ``401 unauthorized``.  ``None`` honours
            ``$CAQR_AUTH_TOKEN``; empty/unset means no auth.
        tls_cert / tls_key: PEM certificate chain + private key; when
            set the listener speaks TLS (stdlib ``ssl``) and the
            handle's URL scheme is ``https``.
    """

    kind = "compile server"

    def __init__(
        self,
        service: Optional[CompileService] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_workers: Optional[int] = None,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        max_body: int = DEFAULT_MAX_BODY,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        envelope_cache_entries: int = DEFAULT_ENVELOPE_ENTRIES,
        request_log: Union[None, str, RequestLog] = None,
        auth_token: Optional[str] = None,
        tls_cert: Optional[str] = None,
        tls_key: Optional[str] = None,
    ):
        if max_concurrency < 1:
            raise ServiceError("server needs max_concurrency >= 1")
        if max_body < 1:
            raise ServiceError("server needs max_body >= 1")
        if envelope_cache_entries < 0:
            raise ServiceError("server needs envelope_cache_entries >= 0")
        self.service = service if service is not None else CompileService()
        super().__init__(
            routes={
                "/v1/stats": ("GET", self._handle_stats),
                "/v1/compile": ("POST", self._handle_compile),
                "/v1/compile_batch": ("POST", self._handle_batch),
                "/v1/cache/invalidate": ("POST", self._handle_invalidate),
                "/v1/cache/fill": ("POST", self._handle_fill),
            },
            stats=self.service.stats,
            host=host,
            port=port,
            max_body=max_body,
            drain_timeout=drain_timeout,
            auth_token=auth_token,
            tls_cert=tls_cert,
            tls_key=tls_key,
        )
        if isinstance(request_log, RequestLog):
            self._request_log = request_log
            self._owns_log = False
        elif isinstance(request_log, str):
            self._request_log = RequestLog(request_log)
            self._owns_log = True
        else:
            self._request_log = RequestLog.from_env()
            self._owns_log = self._request_log is not None
        self.max_workers = max_workers or self.service.max_workers
        self.max_concurrency = max_concurrency
        self.request_timeout = request_timeout
        self._envelope = (
            _EnvelopeCache(envelope_cache_entries)
            if envelope_cache_entries
            else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="caqr-compile"
        )
        self._active_compiles = 0
        self._domain_stats: Dict[str, Stats] = {}
        self._domain_lock = threading.Lock()

    async def _close(self) -> None:
        self._pool.shutdown(wait=False)
        self.service.close()
        if self._owns_log:
            self._request_log.close()

    # -- routing ---------------------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "uptime_s": self.uptime_s(),
            "inflight": self._inflight,
        }

    async def _handle_stats(self, headers: Dict[str, str], body: bytes) -> Reply:
        disk = self.service.cache.disk
        shards = disk.refresh_shard_gauges() if disk is not None else {}
        payload = {
            "schema": WIRE_SCHEMA_VERSION,
            "stats": self._stats_payload(),
            "shards": shards,
            "uptime_s": self.uptime_s(),
            "inflight": self._inflight,
            "draining": self._draining,
        }
        return 200, payload, {}

    def _metrics_body(self) -> bytes:
        """The ``GET /v1/metrics`` Prometheus exposition body."""
        disk = self.service.cache.disk
        if disk is not None:
            disk.refresh_shard_gauges()
        snapshot = Stats()
        snapshot.merge(self.stats)
        # fold in the process-wide portfolio service's win rates (the
        # strategy="portfolio" lanes report there) without creating it
        from repro.service.portfolio import peek_default_portfolio_service

        portfolio = peek_default_portfolio_service()
        if portfolio is not None and portfolio.stats is not self.stats:
            snapshot.merge(portfolio.stats)
        extra = {
            "uptime_seconds": self.uptime_s(),
            "inflight": float(self._inflight),
            "draining": 1.0 if self._draining else 0.0,
        }
        if self._envelope is not None:
            extra["envelope_entries"] = float(len(self._envelope))
        body = render_prometheus(snapshot, extra_gauges=extra)
        # engine stats carried by server-side cold compiles, one prefix
        # per domain (caqr_route_*, caqr_sim_*, caqr_reuse_eval_*, caqr_chain_*)
        with self._domain_lock:
            for domain in sorted(self._domain_stats):
                body += render_prometheus(
                    self._domain_stats[domain], prefix=f"caqr_{domain}"
                )
        return body.encode()

    # -- compile endpoints -----------------------------------------------------

    async def _handle_compile(self, headers: Dict[str, str], body: bytes) -> Reply:
        request = request_from_wire(json_body(body))
        if headers.get(CACHE_ONLY_HEADER, "") not in ("", "0"):
            # gateway peer-fill probe: warm envelope or 404, never a
            # compile (and never an admission slot — this is a lookup)
            outcome, reply = await self._offload(self._cache_only_encoded, request)
        else:
            outcome, reply = await self._admitted(self._compile_encoded, request)
        if outcome is None:
            return reply
        encoded, key, status = outcome
        if encoded is None:
            return (
                404,
                error_to_wire("cache_miss", f"no cached entry for {key}"),
                {"X-CaQR-Fingerprint": key},
            )
        headers = {
            "X-CaQR-Fingerprint": key,
            "X-CaQR-Cache": status,
            "X-CaQR-Strategy": request.strategy,
        }
        return 200, encoded, headers

    def _cache_only_encoded(self, request) -> Tuple[Optional[bytes], str, str]:
        """Worker-thread cache probe: ``(encoded hit body | None, key, "hit")``."""
        with self.stats.timed("fingerprint"):
            key = request.fingerprint()
        shard = request.shard()
        body = self._warm_envelope(key, shard)
        if body is None:
            entry = self.service._lookup_entry(key, shard)
            if entry is None:
                self.stats.count("cache_only_misses")
                return None, key, "hit"
            _, report = entry
            with self.stats.timed("serialize"):
                body = json.dumps(response_to_wire(key, "hit", report)).encode()
            if self._envelope is not None:
                self._envelope.put(key, body)
        self.stats.count("cache_only_hits")
        return body, key, "hit"

    def _warm_envelope(self, key: str, shard: str) -> Optional[bytes]:
        """The cached envelope for *key*, dropped if its entry is gone.

        The envelope is only as alive as the cache entry behind it (TTL
        expiry, invalidation, clear).
        """
        envelope = self._envelope
        body = envelope.get(key) if envelope is not None else None
        if body is not None:
            if self.service.cache.get(key, shard) is not None:
                return body
            envelope.invalidate(key)
        return None

    def _compile_encoded(self, request) -> Tuple[bytes, str, str]:
        """Worker-thread compile returning the encoded response body.

        Warm path: a cached envelope whose underlying cache entry still
        exists is returned as raw bytes — no ``report_to_dict``, no JSON
        encoding, no report deserialization at all (``envelope_hits``).
        Otherwise the request runs through ``compile_classified`` and a
        genuine hit's body is stored for the next repeat.
        """
        envelope = self._envelope
        key: Optional[str] = None
        if envelope is not None:
            with self.stats.timed("fingerprint"):
                key = request.fingerprint()
            body = self._warm_envelope(key, request.shard())
            if body is not None:
                self.stats.count("requests")
                self.stats.count("hits")
                self.stats.count("envelope_hits")
                return body, key, "hit"
        report, key, status = self.service.compile_classified(
            request, fingerprint=key
        )
        if status == "miss":
            self._absorb_report_stats(report)
        with self.stats.timed("serialize"):
            body = json.dumps(response_to_wire(key, status, report)).encode()
        if envelope is not None and status == "hit":
            # store only genuine-hit bodies: they are exactly what the
            # fast path must replay, from_cache flag included
            envelope.put(key, body)
            self.stats.count("envelope_stores")
        return body, key, status

    async def _handle_batch(self, headers: Dict[str, str], body: bytes) -> Reply:
        members, parallel = batch_from_wire(json_body(body))
        requests = [request_from_wire(member) for member in members]
        outcome, reply = await self._admitted(
            self.service.compile_batch, requests, parallel
        )
        if outcome is None:
            return reply
        results = []
        for request, report in zip(requests, outcome):
            status = "hit" if report.from_cache else "miss"
            if status == "miss":
                self._absorb_report_stats(report)
            results.append(
                response_to_wire(request.fingerprint(), status, report)
            )
        return 200, {"schema": WIRE_SCHEMA_VERSION, "results": results}, {}

    async def _admitted(
        self, func, *args
    ) -> Tuple[Optional[Any], Optional[Reply]]:
        """:meth:`_offload` under admission control (one slot per request)."""
        if self._active_compiles >= self.max_concurrency:
            self.stats.count("http_rejected")
            return None, (
                429,
                error_to_wire(
                    "overloaded",
                    f"{self._active_compiles} compiles already admitted "
                    f"(max_concurrency={self.max_concurrency})",
                ),
                {"Retry-After": "1"},
            )
        self._active_compiles += 1
        try:
            return await self._offload(func, *args)
        finally:
            self._active_compiles -= 1

    async def _offload(self, func, *args) -> Tuple[Optional[Any], Optional[Reply]]:
        """Run *func* on the worker pool under the request timeout."""
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._pool, func, *args)
        try:
            return await asyncio.wait_for(future, self.request_timeout), None
        except asyncio.TimeoutError:
            self.stats.count("http_timeouts")
            # the worker thread cannot be killed; keep its eventual
            # outcome retrieved so the loop never logs a stray error
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            return None, (
                504,
                error_to_wire(
                    "timeout",
                    f"compile exceeded {self.request_timeout:.0f}s and is "
                    "still executing server-side; do not retry",
                ),
                {},
            )
        except ReproError as exc:
            # deterministic compiler rejection (e.g. infeasible budget)
            return None, (422, error_to_wire("compile_error", str(exc)), {})

    async def _handle_fill(self, headers: Dict[str, str], body: bytes) -> Reply:
        """``POST /v1/cache/fill``: replay a peer's encoded envelope.

        The gateway calls this after a peer-fill so the entry's *new*
        ring owner holds it warm without ever compiling.  The payload is
        ``{"schema", "shard", "envelope": <response envelope>}`` — the
        envelope is validated through the normal response codec, so a
        corrupt peer body is a ``bad_request``, never a poisoned cache.
        """
        payload = json_body(body)
        if not isinstance(payload, dict):
            raise WireError("fill envelope must be a JSON object")
        if payload.get("schema") != WIRE_SCHEMA_VERSION:
            raise WireError(f"unsupported wire schema {payload.get('schema')!r}")
        shard = payload.get("shard")
        if not isinstance(shard, str) or not shard:
            raise WireError("fill envelope needs the entry's shard")
        report, fingerprint, _ = response_from_wire(payload.get("envelope"))
        outcome, reply = await self._offload(
            self._store_fill, fingerprint, shard, report, payload["envelope"]
        )
        if outcome is None:
            return reply
        return (
            200,
            {"schema": WIRE_SCHEMA_VERSION, "fingerprint": fingerprint, "filled": True},
            {"X-CaQR-Fingerprint": fingerprint},
        )

    def _store_fill(self, fingerprint, shard, report, envelope) -> bool:
        with self.stats.timed("serialize"):
            text = dumps_entry(fingerprint, report)
        with self.stats.timed("store"):
            self.service.cache.put(fingerprint, text, shard)
        if self._envelope is not None:
            # the peer served a hit envelope: exactly what the warm fast
            # path must replay for the next repeat of this fingerprint
            hit_envelope = dict(envelope)
            hit_envelope["cache_status"] = "hit"
            self._envelope.put(
                fingerprint, json.dumps(hit_envelope).encode()
            )
        self.stats.count("cache_fills")
        return True

    def _absorb_report_stats(self, report) -> None:
        """Fold a cold compile's engine stats into the metrics export."""
        with self._domain_lock:
            for domain, attr in _REPORT_STAT_DOMAINS:
                source = getattr(report, attr)
                if source is not None:
                    self._domain_stats.setdefault(domain, Stats()).merge(source)

    async def _handle_invalidate(
        self, headers: Dict[str, str], body: bytes
    ) -> Reply:
        payload = json_body(body)
        if not isinstance(payload, dict):
            raise WireError("invalidate envelope must be a JSON object")
        if payload.get("all"):
            self.service.clear()
            if self._envelope is not None:
                self._envelope.clear()
            self.stats.count("invalidations")
            return 200, {"schema": WIRE_SCHEMA_VERSION, "cleared": True}, {}
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise WireError("invalidate envelope needs a fingerprint (or all)")
        removed = self.service.invalidate(fingerprint)
        if self._envelope is not None and self._envelope.invalidate(fingerprint):
            self.stats.count("envelope_invalidations")
        return (
            200,
            {
                "schema": WIRE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "invalidated": bool(removed),
            },
            {},
        )


class ServerHandle(AppHandle):
    """A :class:`CompileServer` running on a daemon thread (tests, benches)."""

    @property
    def server(self) -> CompileServer:
        return self.app


def start_server_thread(ready_timeout: float = 30.0, **kwargs) -> ServerHandle:
    """Run a :class:`CompileServer` on a background thread; wait until bound.

    Keyword arguments go to the :class:`CompileServer` constructor.  Pass
    ``port=0`` to grab a free port (the handle's :attr:`~ServerHandle.url`
    reflects the real one).
    """
    return start_app_thread(CompileServer, ServerHandle, ready_timeout, kwargs)


def run_server(
    cache_dir: Optional[str] = None,
    ttl: Optional[float] = None,
    disk_entries: Optional[int] = None,
    disk_bytes: Optional[int] = None,
    **kwargs: Any,
) -> int:
    """Blocking entry point behind ``repro serve``.

    The named arguments configure the :class:`CompileService`; every
    other keyword goes to the :class:`CompileServer` constructor.
    Prints ``serving on <host>:<port>`` once bound (machine-parseable —
    the CI smoke script and process supervisors key on it), then runs
    until SIGTERM/SIGINT, drains, and returns 0.  With a ``cache_dir``
    the portfolio win-rate state persists next to the disk cache
    (``portfolio_state.json``) so self-tuning survives restarts.
    """
    service = CompileService(
        cache_dir=cache_dir,
        ttl=ttl,
        disk_entries=disk_entries,
        disk_bytes=disk_bytes,
    )
    if cache_dir:
        from repro.service.portfolio import set_default_portfolio_state_path

        set_default_portfolio_state_path(
            os.path.join(
                os.path.abspath(os.path.expanduser(cache_dir)),
                "portfolio_state.json",
            )
        )
    server = CompileServer(service=service, **kwargs)
    return server.run_until_signal("", "server drained and stopped")

"""Asyncio HTTP/1.1 app base shared by ``repro serve`` and ``repro gateway``.

:class:`~repro.service.net.server.CompileServer` and
:class:`~repro.service.net.gateway.GatewayServer` subclass
:class:`HttpApp`, which owns their common scaffolding once: auth/TLS
config, start/serve/drain, the keep-alive connection loop (``400`` for
a malformed head or ``Content-Length``, ``413`` past ``max_body``
before any body byte is read), dispatch counters and latency
histograms, and the route prelude in front of each subclass's
``{path: (method, handler)}`` table.  Framing stays in
:mod:`repro.service.net.http1`, which carries no service semantics.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import ssl
import threading
import time
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional, Tuple, Union

from repro.exceptions import ServiceError
from repro.service.net.http1 import MAX_HEADER_BYTES, format_response, parse_head
from repro.service.net.wire import WireError, error_to_wire
from repro.service.reqlog import RequestLog
from repro.stats import Stats

__all__ = [
    "DEFAULT_MAX_BODY",
    "DEFAULT_DRAIN_TIMEOUT",
    "PROMETHEUS_CONTENT_TYPE",
    "Reply",
    "HttpApp",
    "AppHandle",
    "Lru",
    "json_body",
    "start_app_thread",
]

DEFAULT_MAX_BODY = 32 * 1024 * 1024
DEFAULT_DRAIN_TIMEOUT = 30.0
KEEPALIVE_TIMEOUT = 75.0
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: One handler result: (status, JSON payload or pre-encoded body bytes,
#: extra response headers).
Reply = Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]
Handler = Callable[[Dict[str, str], bytes], Awaitable[Reply]]

#: Answered mid-drain too: liveness probes and scrapes must survive a
#: rollout.
_DRAIN_EXEMPT = ("/v1/health", "/v1/metrics")


def json_body(body: bytes) -> Any:
    """Decode a JSON request body; undecodable bytes are a ``WireError``."""
    try:
        return json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"request body is not JSON: {exc}") from exc


class Lru:
    """Thread-safe LRU map capped at *max_entries*: the one bounded memo
    both apps keep (the server's envelopes and body keys, the gateway's
    placements and last-served owners).  ``None`` is never a value."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The value under *key* (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* as most recent; drop the oldest past the cap."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def pop(self, key: Hashable) -> bool:
        """Drop *key*; return whether it was there."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class HttpApp:
    """Asyncio HTTP/1.1 app: lifecycle, connection loop, and route prelude.

    Subclasses pass their ``{path: (method, handler)}`` table and stats
    sink (the other arguments are documented on the subclasses), and
    supply :meth:`_health_payload`, :meth:`_metrics_body`, and the
    :meth:`_close` hook that releases their own resources after a drain.
    """

    #: Names the app in thread-start errors; subclasses override.
    kind = "app"

    def __init__(
        self,
        routes: Dict[str, Tuple[str, Handler]],
        stats: Stats,
        host: str,
        port: int,
        max_body: int,
        drain_timeout: float,
        auth_token: Optional[str],
        tls_cert: Optional[str],
        tls_key: Optional[str],
    ):
        if bool(tls_cert) != bool(tls_key):
            raise ServiceError("TLS needs both tls_cert and tls_key")
        self.auth_token = (
            auth_token
            if auth_token is not None
            else os.environ.get("CAQR_AUTH_TOKEN") or None
        )
        self.tls_cert = tls_cert
        self.tls_key = tls_key
        self.stats = stats
        # served from the first scrape, so a rate over it starts at 0
        stats.count("http_internal_errors", 0)
        self.host = host
        self.port = port
        self.max_body = max_body
        self.drain_timeout = drain_timeout
        self._routes = {
            "/v1/health": ("GET", self._handle_health),
            "/v1/metrics": ("GET", self._handle_metrics),
            **routes,
        }
        # a subclass that logs requests sets this once it is constructed
        self._request_log: Optional[RequestLog] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._inflight = 0
        self._draining = False
        self._started_monotonic: Optional[float] = None

    @property
    def scheme(self) -> str:
        return "https" if self.tls_cert else "http"

    def uptime_s(self) -> float:
        """Seconds since the listening socket bound (0.0 before start)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _stats_payload(self) -> Dict[str, Any]:
        """The ``/v1/stats`` ``stats`` object: the sink's snapshot plus
        the cache hit rate and the share of requests folded onto an
        identical one."""
        requests = self.stats.counters.get("requests", 0)
        folds = self.stats.counters.get("dedup_folds", 0)
        return {
            **self.stats.to_dict(),
            "hit_rate": self.stats.rate("hits", "misses"),
            "dedup_rate": folds / requests if requests else 0.0,
        }

    # -- subclass hooks --------------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _metrics_body(self) -> bytes:
        raise NotImplementedError

    async def _close(self) -> None:
        """Release subclass resources once the drain has closed connections."""

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "HttpApp":
        """Bind the listening socket (resolving ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        sslctx = None
        if self.tls_cert:
            sslctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            sslctx.load_cert_chain(self.tls_cert, self.tls_key)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES,
            ssl=sslctx,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        return self

    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Serve until :meth:`request_shutdown` fires, then drain and stop."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix event loops
        await self._stop_event.wait()
        await self.drain()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (call from the loop thread / a signal)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Thread-safe :meth:`request_shutdown` (for embedding threads)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                pass  # the loop already closed: nothing left to stop

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, close everything."""
        if self._draining:
            return
        self._draining = True
        self.stats.count("drains")
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle_event.wait(), self.drain_timeout)
        except asyncio.TimeoutError:
            self.stats.count("drain_timeouts")
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            try:
                # 3.12+ wait_closed also waits for connection handlers;
                # the writers above are closed, so this is quick — but
                # never let a stuck handler wedge the shutdown
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
            except asyncio.TimeoutError:
                pass
        await self._close()

    def run_until_signal(self, banner_suffix: str, stopped_line: str) -> int:
        """Print ``serving on <host>:<port><banner_suffix>`` once bound,
        serve until SIGTERM/SIGINT, drain, print *stopped_line*; return 0."""

        async def _main() -> None:
            await self.start()
            print(f"serving on {self.host}:{self.port}{banner_suffix}", flush=True)
            await self.serve(install_signal_handlers=True)
            print(stopped_line, flush=True)

        asyncio.run(_main())
        return 0

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self.stats.count("http_connections")
        try:
            await self._connection_loop(reader, writer)
        finally:
            # also runs when asyncio.run teardown cancels a handler; the
            # cancellation then propagates once the socket is closed
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                # the peer reset or broke the connection (TLS errors are
                # OSErrors too); it is closed either way
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), KEEPALIVE_TIMEOUT
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
                ConnectionError,
            ):
                return
            parsed = parse_head(head)
            if parsed is None:
                await self._reject(writer, 400, "bad_request", "malformed HTTP request")
                return
            method, path, headers = parsed
            try:
                content_length = int(headers.get("content-length", "0"))
            except ValueError:
                content_length = -1
            if content_length < 0:
                await self._reject(writer, 400, "bad_request", "bad Content-Length")
                return
            if content_length > self.max_body:
                self.stats.count("http_rejected")
                await self._reject(
                    writer,
                    413,
                    "payload_too_large",
                    f"body of {content_length} bytes exceeds the "
                    f"{self.max_body}-byte limit",
                )
                return
            body = b""
            if content_length:
                try:
                    body = await reader.readexactly(content_length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
            status, payload, extra = await self._dispatch(method, path, headers, body)
            keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
                and not self._draining
            )
            try:
                await self._write(writer, status, payload, extra, keep_alive)
            except ConnectionError:
                return
            if not keep_alive:
                return

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, code: str, message: str
    ) -> None:
        """Answer a request the loop refuses before dispatch, then close."""
        await self._write(
            writer, status, error_to_wire(code, message), {}, keep_alive=False
        )

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], bytes],
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        # payload is either a JSON-compatible dict or a pre-encoded body
        # (the envelope fast path, proxied bodies, the Prometheus text)
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        else:
            body = json.dumps(payload).encode()
        content_type = "application/json"
        passthrough = {}
        for name, value in extra_headers.items():
            if name.lower() == "content-type":
                content_type = value
            else:
                passthrough[name] = value
        writer.write(
            format_response(status, body, content_type, passthrough, keep_alive)
        )
        await writer.drain()

    # -- dispatch --------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        start = time.perf_counter()
        self._inflight += 1
        self._idle_event.clear()
        self.stats.count("http_requests")
        self.stats.count(f"http:{path}")
        try:
            reply = await self._route(method, path, headers, body)
        except WireError as exc:
            reply = 400, error_to_wire("bad_request", str(exc)), {}
        except Exception as exc:  # never leak a traceback as a hung socket
            self.stats.count("http_internal_errors")
            reply = (
                500,
                error_to_wire("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()
        if reply[0] >= 400:
            self.stats.count("http_errors")
        elapsed = time.perf_counter() - start
        self.stats.observe("request_latency", elapsed)
        # per-route only for known routes: bounded label cardinality,
        # arbitrary 404 paths only feed the overall histogram
        if path in self._routes:
            self.stats.observe(f"request_latency:{path}", elapsed)
        if self._request_log is not None:
            self._log_request(method, path, reply, elapsed)
        return reply

    def _log_request(
        self, method: str, path: str, reply: Reply, elapsed: float
    ) -> None:
        status, payload, extra = reply
        error = None
        if status >= 400 and isinstance(payload, dict):
            detail = payload.get("error")
            if isinstance(detail, dict):
                error = detail.get("code")
        self._request_log.log(
            method=method,
            path=path,
            status=status,
            latency_ms=round(elapsed * 1000.0, 3),
            fingerprint=extra.get("X-CaQR-Fingerprint"),
            cache=extra.get("X-CaQR-Cache"),
            strategy=extra.get("X-CaQR-Strategy"),
            error=error,
        )

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        # /v1/health is auth-exempt: load balancers and the gateway's
        # membership prober must see liveness without holding credentials
        if (
            self.auth_token is not None
            and path != "/v1/health"
            and headers.get("authorization", "") != f"Bearer {self.auth_token}"
        ):
            self.stats.count("http_unauthorized")
            return (
                401,
                error_to_wire("unauthorized", "missing or invalid bearer token"),
                {},
            )
        if self._draining and path not in _DRAIN_EXEMPT:
            self.stats.count("http_rejected")
            return 503, error_to_wire("shutting_down", "server is draining"), {}
        route = self._routes.get(path)
        if route is None:
            return 404, error_to_wire("not_found", f"no route {method} {path}"), {}
        allowed, handler = route
        if method != allowed:
            return (
                405,
                error_to_wire("method_not_allowed", f"{method} not allowed on {path}"),
                {},
            )
        return await handler(headers, body)

    async def _handle_health(self, headers: Dict[str, str], body: bytes) -> Reply:
        return 200, self._health_payload(), {}

    async def _handle_metrics(self, headers: Dict[str, str], body: bytes) -> Reply:
        return 200, self._metrics_body(), {"Content-Type": PROMETHEUS_CONTENT_TYPE}


class AppHandle:
    """An :class:`HttpApp` running on a daemon thread (tests, benches)."""

    def __init__(self, app: HttpApp, thread: threading.Thread):
        self.app = app
        self.thread = thread

    @property
    def url(self) -> str:
        return f"{self.app.scheme}://{self.app.host}:{self.app.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the app and join its thread."""
        self.app.request_shutdown_threadsafe()
        self.thread.join(timeout)


def start_app_thread(
    app_factory: type,
    handle_factory: Callable[[HttpApp, threading.Thread], AppHandle],
    ready_timeout: float,
    kwargs: Dict[str, Any],
) -> Any:
    """Build and serve an app on a background thread; wait until bound.

    *kwargs* go to *app_factory*; ``port`` defaults to 0 (a free port —
    the handle's ``url`` reflects the real one).  Construction and bind
    failures are re-raised on the caller's thread as ``ServiceError``.
    """
    kwargs.setdefault("port", 0)
    kind = app_factory.kind
    ready = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            app = app_factory(**kwargs)
            await app.start()
            box["app"] = app
            ready.set()
            await app.serve(install_signal_handlers=False)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # surface startup failures to the caller
            box.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=_run, daemon=True, name=f"caqr {kind}")
    thread.start()
    if not ready.wait(ready_timeout):
        raise ServiceError(f"{kind} did not start in time")
    if "error" in box:
        raise ServiceError(f"{kind} failed to start: {box['error']}")
    return handle_factory(box["app"], thread)

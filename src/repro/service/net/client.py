"""Blocking HTTP client for the networked compile service.

:class:`RemoteCompileService` speaks the :mod:`repro.service.net.wire`
protocol to a ``repro serve`` instance and exposes the same
``compile`` / ``compile_request`` / ``compile_classified`` /
``compile_batch`` surface as the in-process
:class:`~repro.service.service.CompileService`, so the two are drop-in
interchangeable behind ``caqr_compile(cache=...)`` — pass a URL instead
of a directory and every process on the machine (or the cluster) shares
one cache and one in-flight dedup table.

Transport behaviour:

* **connection reuse** — one keep-alive ``http.client.HTTPConnection``
  per calling thread (``threading.local``), re-established transparently
  when the server closes it;
* **retry with jittered exponential backoff** — connect errors and the
  retryable server codes (``overloaded`` 429, ``shutting_down`` 503,
  ``internal`` 500) are retried up to ``retries`` times.  A ``timeout``
  (504) answer is **never** retried: the server reports that the compile
  is *still executing* server-side, so resending would only pile more
  work onto the same fingerprint.  4xx envelopes (``bad_request``,
  ``compile_error``, ...) are deterministic and fail immediately;
* **typed failures** — anything that fails for good raises
  :class:`~repro.exceptions.RemoteServiceError` carrying the wire error
  code and HTTP status.

Everything here is stdlib only (``http.client``); the client never
imports the server or asyncio.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import ssl
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import CompileReport
from repro.exceptions import RemoteServiceError
from repro.hardware.backends import Backend
from repro.service.net.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    error_from_wire,
    request_to_wire,
    response_from_wire,
)
from repro.service.service import CompileRequest

__all__ = ["RemoteCompileService", "RETRYABLE_CODES"]

#: Error codes worth a retry: the request never executed (connect
#: failures, admission-control rejections, drain refusals) or died in a
#: way a fresh attempt may dodge (``internal``).  ``timeout`` is absent
#: on purpose — the server owns a still-running compile for that key.
RETRYABLE_CODES = frozenset(
    {"connect_error", "overloaded", "shutting_down", "internal", "no_backend"}
)

_CONNECT_ERRORS = (
    ConnectionError,
    http.client.HTTPException,
    TimeoutError,
    OSError,
)


class RemoteCompileService:
    """Client-side twin of :class:`~repro.service.service.CompileService`.

    Args:
        url: base URL of a ``repro serve`` instance
            (``http://host:port``; any path suffix is ignored).
        timeout: socket timeout per HTTP exchange in seconds.  Cover the
            worst cold compile you expect — a warm hit answers in
            milliseconds but the first request for a heavy circuit holds
            the socket until the server finishes or times out itself.
        retries: additional attempts after the first, for retryable
            failures only.
        backoff: base delay in seconds; attempt *n* sleeps
            ``min(max_backoff, backoff * 2**n)`` scaled by 0.5–1.0 jitter
            so a herd of clients does not re-arrive in lockstep.
        token: bearer token sent as ``Authorization: Bearer <token>``
            on every request (a server started with ``--auth-token``
            rejects anything else with ``401 unauthorized``).  ``None``
            honours ``$CAQR_AUTH_TOKEN``.
        tls_ca: CA bundle (PEM path) to verify an ``https://`` server
            against — the knob for self-signed fleet certificates.
        tls_insecure: skip certificate verification entirely (tests and
            lab setups only).
    """

    def __init__(
        self,
        url: str,
        timeout: float = 600.0,
        retries: int = 3,
        backoff: float = 0.2,
        max_backoff: float = 5.0,
        token: Optional[str] = None,
        tls_ca: Optional[str] = None,
        tls_insecure: bool = False,
    ):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", "https", ""):
            raise RemoteServiceError(
                f"unsupported scheme {parts.scheme!r} "
                "(stdlib client speaks http/https)",
                code="bad_request",
            )
        if not parts.hostname:
            raise RemoteServiceError(f"no host in url {url!r}", code="bad_request")
        self.scheme = parts.scheme or "http"
        self.host = parts.hostname
        self.port = parts.port or (443 if self.scheme == "https" else 80)
        self.url = f"{self.scheme}://{self.host}:{self.port}"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.token = (
            token if token is not None else os.environ.get("CAQR_AUTH_TOKEN") or None
        )
        self._ssl_context: Optional[ssl.SSLContext] = None
        if self.scheme == "https":
            context = ssl.create_default_context(cafile=tls_ca)
            if tls_insecure:
                context.check_hostname = False
                context.verify_mode = ssl.CERT_NONE
            self._ssl_context = context
        self._local = threading.local()
        self._rng = random.Random(0x5EED)
        self._rng_lock = threading.Lock()

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self.scheme == "https":
                conn = http.client.HTTPSConnection(
                    self.host,
                    self.port,
                    timeout=self.timeout,
                    context=self._ssl_context,
                )
            else:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            finally:
                self._local.conn = None

    def close(self) -> None:
        """Close this thread's keep-alive connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "RemoteCompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _sleep_before(self, attempt: int) -> None:
        with self._rng_lock:
            jitter = 0.5 + self._rng.random() / 2
        delay = min(self.max_backoff, self.backoff * (2**attempt)) * jitter
        if delay > 0:
            threading.Event().wait(delay)

    def _exchange_once(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], Any]:
        """One request/response on this thread's connection."""
        conn = self._connection()
        headers = {"Content-Type": "application/json", "Connection": "keep-alive"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        resp_headers = {name.lower(): value for name, value in response.getheaders()}
        if resp_headers.get("connection", "").lower() == "close":
            self._drop_connection()
        try:
            payload = json.loads(raw) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = raw.decode("latin-1", "replace")
        return response.status, resp_headers, payload

    def _exchange(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, str], Any]:
        """Request with retry policy applied; returns the first final answer."""
        body = json.dumps(payload).encode() if payload is not None else None
        last: Optional[RemoteServiceError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep_before(attempt - 1)
            try:
                status, headers, answer = self._exchange_once(method, path, body)
            except _CONNECT_ERRORS as exc:
                # the connection is toast either way; a retry dials fresh
                self._drop_connection()
                last = RemoteServiceError(
                    f"{method} {self.url}{path}: {type(exc).__name__}: {exc}",
                    code="connect_error",
                )
                continue
            if status < 400:
                return status, headers, answer
            code, message = error_from_wire(answer)
            error = RemoteServiceError(
                f"{method} {path} -> {status} {code}: {message}",
                code=code,
                status=status,
            )
            if code not in RETRYABLE_CODES:
                raise error
            last = error
        assert last is not None
        raise last

    # -- the CompileService surface --------------------------------------------

    def compile(
        self,
        target: Union[QuantumCircuit, nx.Graph],
        backend: Optional[Backend] = None,
        **knobs: Any,
    ) -> CompileReport:
        """Remote cached ``caqr_compile`` — same signature as the local one."""
        return self.compile_request(CompileRequest(target, backend, **knobs))

    def compile_request(self, request: CompileRequest) -> CompileReport:
        """Serve one :class:`CompileRequest` through the remote cache."""
        return self.compile_classified(request)[0]

    def compile_classified(
        self, request: CompileRequest
    ) -> Tuple[CompileReport, str, str]:
        """Remote twin of ``CompileService.compile_classified``."""
        _, _, payload = self._exchange(
            "POST", "/v1/compile", request_to_wire(request)
        )
        try:
            report, fingerprint, status = response_from_wire(payload)
        except WireError as exc:
            raise RemoteServiceError(
                f"server answered an invalid response envelope: {exc}",
                code="internal",
            ) from exc
        return report, fingerprint, status

    def compile_batch(
        self, requests: Sequence[CompileRequest], parallel: bool = True
    ) -> List[CompileReport]:
        """Remote batch compile; results in input order (like the local one)."""
        envelope = {
            "schema": WIRE_SCHEMA_VERSION,
            "requests": [request_to_wire(request) for request in requests],
            "parallel": bool(parallel),
        }
        _, _, payload = self._exchange("POST", "/v1/compile_batch", envelope)
        results = payload.get("results") if isinstance(payload, dict) else None
        if not isinstance(results, list) or len(results) != len(requests):
            raise RemoteServiceError(
                "server answered a malformed batch envelope", code="internal"
            )
        reports: List[CompileReport] = []
        try:
            for member in results:
                report, _, _ = response_from_wire(member)
                reports.append(report)
        except WireError as exc:
            raise RemoteServiceError(
                f"server answered an invalid batch member: {exc}", code="internal"
            ) from exc
        return reports

    # -- operational endpoints -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health`` payload (including the ``draining`` flag)."""
        _, _, payload = self._exchange("GET", "/v1/health")
        if not isinstance(payload, dict):
            raise RemoteServiceError("malformed health payload", code="internal")
        return payload

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` payload: stats snapshot + shard usage."""
        _, _, payload = self._exchange("GET", "/v1/stats")
        if not isinstance(payload, dict):
            raise RemoteServiceError("malformed stats payload", code="internal")
        return payload

    def metrics(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition body."""
        _, _, payload = self._exchange("GET", "/v1/metrics")
        if not isinstance(payload, str):
            # the exposition format is not JSON; a decoded dict means
            # the server answered something that is not a metrics body
            raise RemoteServiceError("malformed metrics payload", code="internal")
        return payload

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one fingerprint server-side; True if an entry existed."""
        _, _, payload = self._exchange(
            "POST", "/v1/cache/invalidate", {"fingerprint": fingerprint}
        )
        return bool(isinstance(payload, dict) and payload.get("invalidated"))

    def clear(self) -> None:
        """Drop every server-side cache entry (both tiers)."""
        self._exchange("POST", "/v1/cache/invalidate", {"all": True})

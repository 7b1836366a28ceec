"""Networked front-end for the compile service.

Six modules, strictly layered:

* :mod:`repro.service.net.wire` — schema-versioned JSON envelopes and
  typed error codes (shared vocabulary; imports neither peer);
* :mod:`repro.service.net.http1` — minimal HTTP/1.1 framing shared by
  everything asyncio-side (head parsing, response formatting, pooled
  request/response round-trips);
* :mod:`repro.service.net.app` — the asyncio HTTP/1.1 app base both
  front-ends subclass: lifecycle and drain, the keep-alive connection
  loop, dispatch counters and histograms, auth and the route prelude;
* :mod:`repro.service.net.server` — the compile server on that base,
  fronting one :class:`~repro.service.service.CompileService`;
* :mod:`repro.service.net.client` — blocking ``http.client`` client
  exposing the same compile surface as the local service;
* :mod:`repro.service.net.gateway` — consistent-hash fleet gateway on
  the same base, routing the wire protocol across N servers with health-driven
  membership, retry-on-next-replica, and peer cache fill.

``caqr_compile(cache="http://host:port")`` resolves to a
:class:`RemoteCompileService` automatically (``https://`` works too);
``repro serve`` runs the server and ``repro gateway`` the fleet
front-end from the command line.
"""

from repro.service.net.client import RETRYABLE_CODES, RemoteCompileService
from repro.service.net.gateway import (
    DEFAULT_GATEWAY_PORT,
    GatewayHandle,
    GatewayServer,
    run_gateway,
    start_gateway_thread,
)
from repro.service.net.server import (
    DEFAULT_PORT,
    CompileServer,
    ServerHandle,
    run_server,
    start_server_thread,
)
from repro.service.net.wire import (
    CACHE_STATUSES,
    ERROR_CODES,
    WIRE_SCHEMA_VERSION,
    WireError,
    batch_body,
    error_from_wire,
    error_to_wire,
    graph_from_dict,
    graph_to_dict,
    request_body,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "CACHE_STATUSES",
    "ERROR_CODES",
    "DEFAULT_PORT",
    "DEFAULT_GATEWAY_PORT",
    "WireError",
    "CompileServer",
    "ServerHandle",
    "GatewayServer",
    "GatewayHandle",
    "RemoteCompileService",
    "RETRYABLE_CODES",
    "run_server",
    "start_server_thread",
    "run_gateway",
    "start_gateway_thread",
    "graph_to_dict",
    "graph_from_dict",
    "request_body",
    "request_to_wire",
    "request_from_wire",
    "batch_body",
    "response_to_wire",
    "response_from_wire",
    "error_to_wire",
    "error_from_wire",
]

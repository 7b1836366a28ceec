"""Compile service: content-addressed caching + batch compilation.

The production front-end for :func:`repro.compile_api.caqr_compile`:
deterministic compilation inputs are fingerprinted
(:mod:`repro.service.fingerprint`), compiled reports are stored losslessly
(:mod:`repro.service.serialization`) in a two-tier LRU/disk cache
(:mod:`repro.service.cache`), and :class:`CompileService`
(:mod:`repro.service.service`) serves single requests, folds concurrent
duplicates, and fans batches over a process pool.  The networked
front-end (:mod:`repro.service.net`) shares one such service across
processes over HTTP: :class:`CompileServer` hosts it,
:class:`RemoteCompileService` is the drop-in client twin, and
:class:`GatewayServer` consistent-hashes requests across a fleet of
servers (:mod:`repro.service.fleet`).  See
``docs/SERVICE.md`` for the cache-key and wire contracts and
``docs/ARCHITECTURE.md`` for where this layer sits.
"""

from repro.service.cache import DEFAULT_SHARD, DiskCache, MemoryCache, TieredCache
from repro.service.driftreplay import DriftReplayResult, replay_drift
from repro.service.fingerprint import (
    CALIB_BANDS_ENV,
    backend_digest,
    band_value,
    banded_backend_digest,
    circuit_digest,
    circuit_normal_form,
    graph_digest,
    graph_normal_form,
    request_fingerprint,
    resolve_calib_bands,
)
from repro.service.serialization import (
    SCHEMA_VERSION,
    circuit_from_dict,
    circuit_to_dict,
    dumps_entry,
    loads_entry,
    report_from_dict,
    report_to_dict,
)
from repro.service.service import (
    CompileRequest,
    CompileService,
    default_service,
    reset_default_service,
    resolve_cache,
)
from repro.service.metrics import render_prometheus
from repro.service.portfolio import (
    PortfolioCompileService,
    StrategySpec,
    default_portfolio_service,
    peek_default_portfolio_service,
    reset_default_portfolio_service,
    set_default_portfolio_state_path,
)
from repro.service.reqlog import RequestLog
from repro.service.workers import WorkerPool
from repro.service.fleet import FleetState, HashRing, ring_key
from repro.service.net import (
    CACHE_STATUSES,
    ERROR_CODES,
    WIRE_SCHEMA_VERSION,
    CompileServer,
    GatewayHandle,
    GatewayServer,
    RemoteCompileService,
    ServerHandle,
    WireError,
    run_gateway,
    run_server,
    start_gateway_thread,
    start_server_thread,
)

__all__ = [
    "CompileRequest",
    "CompileService",
    "PortfolioCompileService",
    "StrategySpec",
    "default_portfolio_service",
    "peek_default_portfolio_service",
    "reset_default_portfolio_service",
    "set_default_portfolio_state_path",
    "WorkerPool",
    "render_prometheus",
    "RequestLog",
    "CompileServer",
    "GatewayServer",
    "GatewayHandle",
    "RemoteCompileService",
    "ServerHandle",
    "WireError",
    "run_server",
    "start_server_thread",
    "run_gateway",
    "start_gateway_thread",
    "HashRing",
    "FleetState",
    "ring_key",
    "MemoryCache",
    "DiskCache",
    "TieredCache",
    "DEFAULT_SHARD",
    "SCHEMA_VERSION",
    "WIRE_SCHEMA_VERSION",
    "CACHE_STATUSES",
    "ERROR_CODES",
    "default_service",
    "reset_default_service",
    "resolve_cache",
    "request_fingerprint",
    "circuit_digest",
    "circuit_normal_form",
    "graph_digest",
    "graph_normal_form",
    "backend_digest",
    "banded_backend_digest",
    "band_value",
    "resolve_calib_bands",
    "CALIB_BANDS_ENV",
    "DriftReplayResult",
    "replay_drift",
    "circuit_to_dict",
    "circuit_from_dict",
    "report_to_dict",
    "report_from_dict",
    "dumps_entry",
    "loads_entry",
]

"""Wire protocol for the networked compile service.

Everything that crosses the HTTP boundary is a **schema-versioned JSON
envelope** defined here, so :mod:`repro.service.net.server` and
:mod:`repro.service.net.client` never hand-roll payload shapes and a
stale peer fails loudly instead of guessing:

* request envelope — a :class:`~repro.service.service.CompileRequest`
  as data: the target (lossless ``circuit_to_dict`` record, or an
  explicit node/edge list for QAOA graphs), the backend snapshot
  (``backend_to_json`` payload, bit-exact floats), and every knob.  The
  server re-fingerprints the decoded request, so client and server
  always agree on the cache key by construction;
* response envelope — the fingerprint, the cache status
  (``hit`` / ``miss`` / ``inflight``), and the lossless
  ``report_to_dict`` record from :mod:`repro.service.serialization`;
* error envelope — a typed code from :data:`ERROR_CODES` plus a
  human-readable message.  Clients branch on the *code* (retry policy,
  exception mapping), never on the message text.

Anything malformed raises :class:`WireError` — the server maps it to a
``bad_request`` error envelope, the client to a
:class:`~repro.exceptions.RemoteServiceError`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from repro.compile_api import MODES, CompileReport
from repro.exceptions import ReproError, ServiceError
from repro.hardware.serialization import backend_from_json, backend_to_json
from repro.service.serialization import (
    circuit_from_dict,
    circuit_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.service.service import CompileRequest

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "CACHE_STATUSES",
    "ERROR_CODES",
    "WireError",
    "graph_to_dict",
    "graph_from_dict",
    "request_to_wire",
    "request_from_wire",
    "batch_from_wire",
    "response_to_wire",
    "response_from_wire",
    "error_to_wire",
    "error_from_wire",
]

# v2: portfolio knobs (strategy / objective / portfolio_workers) joined
# the request envelope; the report record gained the portfolio fields
# v3: calib_bands joined the request envelope (drift-banded fingerprints);
# the report record gained sim_stats / eval_stats
# v4: the report record gained chain_stats (the chain-engine lane)
WIRE_SCHEMA_VERSION = 4

#: Cache-status labels carried in the ``X-CaQR-Cache`` header and the
#: response envelope: ``miss`` — this request paid for the compile;
#: ``hit`` — served from a warm tier; ``inflight`` — folded onto an
#: identical compilation that another request had already started.
CACHE_STATUSES = ("hit", "miss", "inflight")

#: Typed error codes an error envelope may carry.  Retryable for a
#: client: ``overloaded`` (429), ``shutting_down`` (503), ``internal``
#: (500), ``connect_error`` (no response at all).  Never retryable:
#: ``timeout`` — the server reports the compile *still executing*
#: server-side, so a retry would only pile on; ``bad_request`` /
#: ``unsupported_schema`` / ``payload_too_large`` / ``not_found`` /
#: ``method_not_allowed`` — resending the same bytes cannot succeed;
#: ``compile_error`` — the compiler itself rejected the request
#: (deterministic, e.g. an infeasible qubit budget); ``unauthorized`` —
#: the bearer token is missing or wrong (fix credentials, not retries).
#: Fleet-specific: ``cache_miss`` — a cache-only probe
#: (``X-CaQR-Cache-Only``) found nothing, the gateway falls back to a
#: real compile; ``no_backend`` — the gateway has every backend marked
#: down (retryable: a re-probe may bring one back).
ERROR_CODES = frozenset(
    {
        "bad_request",
        "unsupported_schema",
        "payload_too_large",
        "not_found",
        "method_not_allowed",
        "compile_error",
        "timeout",
        "overloaded",
        "shutting_down",
        "internal",
        "connect_error",
        "unauthorized",
        "cache_miss",
        "no_backend",
    }
)


class WireError(ServiceError):
    """A payload that does not parse as a valid protocol envelope."""


def graph_to_dict(graph: nx.Graph) -> Dict[str, Any]:
    """Lossless record of a QAOA problem graph (int nodes, weighted edges)."""
    nodes = []
    for node in graph.nodes():
        if not isinstance(node, int):
            raise WireError(f"graph nodes must be ints, got {node!r}")
        nodes.append(node)
    edges = []
    for u, v, data in graph.edges(data=True):
        weight = data.get("weight")
        edges.append([min(u, v), max(u, v), weight])
    return {"nodes": sorted(nodes), "edges": sorted(edges, key=lambda e: e[:2])}


def graph_from_dict(payload: Dict[str, Any]) -> nx.Graph:
    """Inverse of :func:`graph_to_dict`."""
    try:
        graph = nx.Graph()
        graph.add_nodes_from(int(node) for node in payload["nodes"])
        for u, v, weight in payload["edges"]:
            if weight is None:
                graph.add_edge(int(u), int(v))
            else:
                graph.add_edge(int(u), int(v), weight=float(weight))
        return graph
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed graph payload: {exc}") from exc


def request_to_wire(request: CompileRequest) -> Dict[str, Any]:
    """``CompileRequest`` -> request envelope (JSON-compatible dict)."""
    if isinstance(request.target, nx.Graph):
        target_kind: str = "graph"
        target: Dict[str, Any] = graph_to_dict(request.target)
    else:
        target_kind = "circuit"
        target = circuit_to_dict(request.target)
    backend = (
        json.loads(backend_to_json(request.backend))
        if request.backend is not None
        else None
    )
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "target_kind": target_kind,
        "target": target,
        "backend": backend,
        "knobs": {
            "mode": request.mode,
            "qubit_limit": request.qubit_limit,
            "reset_style": request.reset_style,
            "seed": request.seed,
            "auto_commuting": bool(request.auto_commuting),
            "parallel": bool(request.parallel),
            "strategy": request.strategy,
            "objective": request.objective,
            "portfolio_workers": request.portfolio_workers,
            # ship the *resolved* band count: the sender's environment is
            # authoritative, so client, server, and gateway cannot disagree
            # on the digest a request keys under
            "calib_bands": request.resolved_calib_bands(),
        },
    }


def _knob_bool(knobs: Dict[str, Any], name: str, default: bool) -> bool:
    """A JSON-bool knob; ``"false"`` or ``0`` is a malformed request."""
    value = knobs.get(name, default)
    if not isinstance(value, bool):
        raise WireError(f"knob {name!r} must be a JSON bool, got {value!r}")
    return value


def _knob_int(
    knobs: Dict[str, Any], name: str, default: Optional[int]
) -> Optional[int]:
    """A JSON-int knob (``null`` allowed only where the default is ``None``)."""
    value = knobs.get(name, default)
    if value is None and default is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireError(f"knob {name!r} must be a JSON int, got {value!r}")
    return value


def request_from_wire(payload: Dict[str, Any]) -> CompileRequest:
    """Request envelope -> ``CompileRequest`` (validating everything)."""
    if not isinstance(payload, dict):
        raise WireError("request envelope must be a JSON object")
    if payload.get("schema") != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"unsupported wire schema {payload.get('schema')!r} "
            f"(this server speaks {WIRE_SCHEMA_VERSION})"
        )
    kind = payload.get("target_kind")
    try:
        if kind == "graph":
            target = graph_from_dict(payload["target"])
        elif kind == "circuit":
            target = circuit_from_dict(payload["target"])
        else:
            raise WireError(f"unknown target_kind {kind!r}")
        backend = (
            backend_from_json(json.dumps(payload["backend"]))
            if payload.get("backend") is not None
            else None
        )
        knobs = payload.get("knobs") or {}
        if not isinstance(knobs, dict):
            raise WireError("request knobs must be a JSON object")
        mode = str(knobs.get("mode", "min_depth"))
        if mode not in MODES:
            raise WireError(f"unknown compile mode {mode!r}")
        # older clients still send the retired engine switch; it never
        # changed the result, so it is checked and ignored
        _knob_bool(knobs, "incremental", True)
        objective = knobs.get("objective")
        calib_bands = _knob_int(knobs, "calib_bands", None)
        return CompileRequest(
            target=target,
            backend=backend,
            mode=mode,
            qubit_limit=_knob_int(knobs, "qubit_limit", None),
            reset_style=str(knobs.get("reset_style", "cif")),
            seed=_knob_int(knobs, "seed", 11),
            auto_commuting=_knob_bool(knobs, "auto_commuting", True),
            parallel=_knob_bool(knobs, "parallel", True),
            strategy=str(knobs.get("strategy", "auto")),
            objective=str(objective) if objective is not None else None,
            portfolio_workers=_knob_int(knobs, "portfolio_workers", None),
            # the sender resolved its environment already; an absent value
            # means "banding off", never "re-resolve against *our* env"
            calib_bands=0 if calib_bands is None else calib_bands,
        )
    except WireError:
        raise
    # what the circuit, graph, backend and knob decoders raise on bad
    # records; anything else is a decoder bug and answers a counted 500
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise WireError(f"malformed request envelope: {exc}") from exc


def batch_from_wire(payload: Any) -> Tuple[List[Any], bool]:
    """Batch envelope -> ``(member request envelopes, parallel)``.

    Members stay undecoded: the server decodes each with
    :func:`request_from_wire`, the gateway places them by body digest.
    """
    if not isinstance(payload, dict):
        raise WireError("batch envelope must be a JSON object")
    if payload.get("schema") != WIRE_SCHEMA_VERSION:
        raise WireError(f"unsupported wire schema {payload.get('schema')!r}")
    members = payload.get("requests")
    if not isinstance(members, list):
        raise WireError("batch envelope needs a requests list")
    return members, _knob_bool(payload, "parallel", True)


def response_to_wire(
    fingerprint: str, cache_status: str, report: CompileReport
) -> Dict[str, Any]:
    """Compile result -> response envelope."""
    if cache_status not in CACHE_STATUSES:
        raise WireError(f"unknown cache status {cache_status!r}")
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "cache_status": cache_status,
        "report": report_to_dict(report),
    }


def response_from_wire(payload: Dict[str, Any]) -> Tuple[CompileReport, str, str]:
    """Response envelope -> ``(report, fingerprint, cache_status)``.

    ``report.from_cache`` follows the service contract: ``True`` unless
    this request itself paid for the compilation (``miss``).
    """
    if not isinstance(payload, dict):
        raise WireError("response envelope must be a JSON object")
    if payload.get("schema") != WIRE_SCHEMA_VERSION:
        raise WireError(f"unsupported wire schema {payload.get('schema')!r}")
    status = payload.get("cache_status")
    if status not in CACHE_STATUSES:
        raise WireError(f"unknown cache status {status!r}")
    fingerprint = payload.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise WireError("response envelope missing fingerprint")
    try:
        report = report_from_dict(payload["report"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed response envelope: {exc}") from exc
    report.from_cache = status != "miss"
    return report, fingerprint, status


def error_to_wire(code: str, message: str) -> Dict[str, Any]:
    """Typed error -> error envelope."""
    if code not in ERROR_CODES:
        raise WireError(f"unknown error code {code!r}")
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


def error_from_wire(payload: Any) -> Tuple[str, str]:
    """Error envelope -> ``(code, message)``; tolerant of junk bodies.

    A proxy or crashed peer may answer with HTML or nothing at all, so
    unrecognisable bodies decode to ``("internal", <best effort text>)``
    rather than raising — the client still needs a code to branch on.
    """
    if isinstance(payload, dict):
        error = payload.get("error")
        if isinstance(error, dict):
            code = error.get("code")
            message = str(error.get("message", ""))
            if code in ERROR_CODES:
                return code, message
    return "internal", str(payload)[:200]

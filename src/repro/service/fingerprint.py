"""Canonical fingerprints for content-addressed compilation caching.

CaQR compilation is deterministic given (circuit, backend calibration,
mode/knobs, seed), so a stable digest of those inputs addresses the
compiled result.  This module derives that digest:

* :func:`circuit_normal_form` — a QASM-flavoured normal form of a circuit:
  fixed header, one line per instruction carrying the gate name, shortest
  round-trip float params, wire indices, classical condition, and label.
  Two circuits share a normal form iff their instruction streams are
  indistinguishable to every compiler pass.
* :func:`graph_normal_form` — the analogue for QAOA problem graphs (node
  count + sorted weighted edge list).
* :func:`backend_digest` — SHA-256 over the sorted-key backend JSON
  snapshot (:func:`repro.hardware.serialization.backend_to_json`), so any
  calibration drift — a single CX error changing — yields a new digest.
* :func:`banded_backend_digest` — the drift-tolerant variant: error rates
  and coherence times are quantised into *calib_bands* bands per decade
  (log10 scale) before hashing, so snapshots that differ only by in-band
  drift share a digest (and therefore cache entries and fleet placement).
  Durations and the coupling map stay exact.  ``calib_bands=None``/``0``
  degrades to the exact :func:`backend_digest`.
* :func:`_keyed_fingerprint` — the cache key behind
  :meth:`repro.compile_api.CompileRequest.fingerprint`: SHA-256 over the
  canonical JSON of the target digest, backend digest, and every
  semantic knob.

The key deliberately **excludes** the engine knobs ``parallel`` and
``portfolio_workers``: the serial == pooled harnesses pin process-pool
fan-out — and the portfolio race across any worker count — to identical
outputs, so a serial compile may serve a pooled one's cache entry.
``strategy`` and ``objective`` are *semantic* knobs: a portfolio compile
may return a different circuit than the single-strategy path (that is
its job), so they feed the key.  See
``docs/SERVICE.md`` for the full contract.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, Optional, Union

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import ServiceError
from repro.hardware.backends import Backend
from repro.hardware.serialization import backend_to_json

__all__ = [
    "CALIB_BANDS_ENV",
    "circuit_normal_form",
    "circuit_digest",
    "graph_normal_form",
    "graph_digest",
    "backend_digest",
    "band_value",
    "resolve_calib_bands",
    "banded_backend_digest",
]

#: Environment variable giving the process-wide default band count when a
#: request leaves ``calib_bands`` unset.  Unset/empty/``0`` means exact
#: digests (the legacy behaviour).
CALIB_BANDS_ENV = "CAQR_CALIB_BANDS"

#: Calibration fields that banding quantises.  Durations (``cx_duration``,
#: ``measure_duration``, ...) stay exact: they are integers the scheduler
#: consumes directly and real drift reports leave them untouched.
BANDED_CALIBRATION_FIELDS = ("cx_error", "readout_error", "sq_error", "t1_dt", "t2_dt")


def _fmt_float(value: float) -> str:
    # repr() is the shortest string that round-trips the exact float
    return repr(float(value))


def circuit_normal_form(circuit: QuantumCircuit) -> str:
    """Stable text normal form of *circuit* (QASM-like, one op per line)."""
    lines = [f"qubits {circuit.num_qubits}", f"clbits {circuit.num_clbits}"]
    for instruction in circuit.data:
        parts = [instruction.name]
        if instruction.params:
            parts.append("(" + ",".join(_fmt_float(p) for p in instruction.params) + ")")
        parts.append("q" + ",".join(str(q) for q in instruction.qubits))
        if instruction.clbits:
            parts.append("c" + ",".join(str(c) for c in instruction.clbits))
        if instruction.condition is not None:
            parts.append(f"if[{instruction.condition[0]}=={instruction.condition[1]}]")
        if instruction.label is not None:
            parts.append(f"label[{instruction.label}]")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_digest(circuit: QuantumCircuit) -> str:
    """SHA-256 hex digest of :func:`circuit_normal_form`."""
    return hashlib.sha256(circuit_normal_form(circuit).encode()).hexdigest()


def graph_normal_form(graph: nx.Graph) -> str:
    """Stable text normal form of a QAOA problem graph."""
    lines = [f"nodes {graph.number_of_nodes()}"]
    for a, b, data in sorted(
        (min(u, v), max(u, v), d) for u, v, d in graph.edges(data=True)
    ):
        weight = data.get("weight")
        suffix = f" w{_fmt_float(weight)}" if weight is not None else ""
        lines.append(f"edge {a}-{b}{suffix}")
    return "\n".join(lines) + "\n"


def graph_digest(graph: nx.Graph) -> str:
    """SHA-256 hex digest of :func:`graph_normal_form`."""
    return hashlib.sha256(graph_normal_form(graph).encode()).hexdigest()


def backend_digest(backend: Optional[Backend]) -> Optional[str]:
    """SHA-256 over the canonical backend snapshot (``None`` stays ``None``).

    The snapshot covers the coupling map, every calibration entry, and the
    dynamic-circuit capability flag, so a new calibration snapshot — even a
    single changed CX error or readout probability — invalidates every key
    derived from the previous one.
    """
    if backend is None:
        return None
    return hashlib.sha256(backend_to_json(backend).encode()).hexdigest()


def resolve_calib_bands(calib_bands: Optional[int] = None) -> Optional[int]:
    """Resolve the effective band count for one request.

    An explicit value wins; ``None`` falls back to :data:`CALIB_BANDS_ENV`.
    The resolved value is normalised so the two "banding off" spellings
    (``None`` and ``0``) collapse to ``None`` — they must produce the same
    digests.  Negative or non-integer values raise :class:`ServiceError`.
    """
    if calib_bands is None:
        raw = os.environ.get(CALIB_BANDS_ENV, "").strip()
        if not raw:
            return None
        try:
            calib_bands = int(raw)
        except ValueError:
            raise ServiceError(
                f"${CALIB_BANDS_ENV} must be an integer, got {raw!r}"
            ) from None
    try:
        bands = int(calib_bands)
    except (TypeError, ValueError):
        raise ServiceError(f"calib_bands must be an integer, got {calib_bands!r}") from None
    if bands < 0:
        raise ServiceError(f"calib_bands must be >= 0, got {bands}")
    return bands or None


def band_value(value: float, bands: int) -> Union[int, str]:
    """Quantise one positive calibration value into a log10 band index.

    With *bands* bands per decade, band ``k`` covers
    ``[10^(k/bands), 10^((k+1)/bands))`` — e.g. ``bands=4`` means values
    within ~78 % of each other share a band.  Non-positive or non-finite
    values have no log-scale home, so they pass through as their exact
    ``repr`` (two snapshots only match if such a value is bit-identical).
    """
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        return repr(v)
    return math.floor(math.log10(v) * bands)


def banded_backend_digest(
    backend: Optional[Backend], calib_bands: Optional[int] = None
) -> Optional[str]:
    """Drift-tolerant backend digest: calibration values banded, rest exact.

    *calib_bands* is the **resolved** band count (see
    :func:`resolve_calib_bands`); ``None``/``0`` returns the exact
    :func:`backend_digest`.  The band count itself feeds the hash, so
    entries written under different band widths never collide.
    """
    if backend is None:
        return None
    if not calib_bands:
        return backend_digest(backend)
    payload = json.loads(backend_to_json(backend))
    calibration = payload["calibration"]
    for name in BANDED_CALIBRATION_FIELDS:
        calibration[name] = {
            key: band_value(value, calib_bands)
            for key, value in calibration.get(name, {}).items()
        }
    payload["calib_bands"] = int(calib_bands)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _keyed_fingerprint(
    target: Union[QuantumCircuit, nx.Graph],
    backend_key: Optional[str],
    bands: Optional[int],
    **knobs: Any,
) -> str:
    """The cache key over an already computed banded backend digest and
    resolved band count (a ``CompileRequest`` computes them once for its
    key and its shard).

    The ``calib_bands`` payload entry only appears when banding is on, so
    banding off reproduces the historical keys bit for bit.
    """
    if isinstance(target, nx.Graph):
        target_kind, target_hash = "graph", graph_digest(target)
    else:
        target_kind, target_hash = "circuit", circuit_digest(target)
    payload: Dict[str, Any] = {
        "target_kind": target_kind,
        "target": target_hash,
        "backend": backend_key,
        **knobs,
        "auto_commuting": bool(knobs["auto_commuting"]),
    }
    if bands:
        payload["calib_bands"] = bands
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

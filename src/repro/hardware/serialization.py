"""JSON (de)serialization for calibrations and backends.

Real experiments pin a *calibration snapshot* (the paper exports IBM
Mumbai's CNOT durations/errors and readout errors); these helpers let a
snapshot be stored with the experiment results and reloaded bit-exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.exceptions import HardwareError
from repro.hardware.backends import Backend
from repro.hardware.calibration import Calibration
from repro.hardware.coupling import CouplingMap

__all__ = [
    "calibration_to_dict",
    "calibration_from_dict",
    "backend_to_json",
    "backend_from_json",
]

_FORMAT_VERSION = 1


def calibration_to_dict(calibration: Calibration) -> Dict[str, Any]:
    """Calibration -> JSON-compatible dict (edges as sorted "a-b" keys)."""
    return {
        "cx_error": {
            "-".join(map(str, sorted(edge))): value
            for edge, value in calibration.cx_error.items()
        },
        "cx_duration": {
            "-".join(map(str, sorted(edge))): value
            for edge, value in calibration.cx_duration.items()
        },
        "readout_error": {str(q): v for q, v in calibration.readout_error.items()},
        "sq_error": {str(q): v for q, v in calibration.sq_error.items()},
        "t1_dt": {str(q): v for q, v in calibration.t1_dt.items()},
        "t2_dt": {str(q): v for q, v in calibration.t2_dt.items()},
        "measure_duration": calibration.measure_duration,
        "reset_duration": calibration.reset_duration,
        "sq_duration": calibration.sq_duration,
    }


def calibration_from_dict(payload: Dict[str, Any]) -> Calibration:
    """Inverse of :func:`calibration_to_dict`."""

    def _edge(key: str):
        a, b = key.split("-")
        return frozenset((int(a), int(b)))

    def _items(name: str, required: bool = True):
        value = payload[name] if required else payload.get(name, {})
        if not isinstance(value, dict):
            raise HardwareError(f"calibration {name!r} must be a mapping")
        return value.items()

    try:
        return Calibration(
            cx_error={_edge(k): float(v) for k, v in _items("cx_error")},
            cx_duration={_edge(k): int(v) for k, v in _items("cx_duration")},
            readout_error={int(q): float(v) for q, v in _items("readout_error")},
            sq_error={int(q): float(v) for q, v in _items("sq_error", False)},
            t1_dt={int(q): float(v) for q, v in _items("t1_dt", False)},
            t2_dt={int(q): float(v) for q, v in _items("t2_dt", False)},
            measure_duration=int(payload["measure_duration"]),
            reset_duration=int(payload["reset_duration"]),
            sq_duration=int(payload["sq_duration"]),
        )
    except (KeyError, ValueError) as exc:
        raise HardwareError(f"malformed calibration payload: {exc}") from exc


def backend_to_json(backend: Backend) -> str:
    """Serialize a full backend (name, coupling, calibration, flags)."""
    payload = {
        "version": _FORMAT_VERSION,
        "name": backend.name,
        "num_qubits": backend.num_qubits,
        "edges": [list(edge) for edge in backend.coupling.edges],
        "supports_dynamic_circuits": backend.supports_dynamic_circuits,
        "calibration": calibration_to_dict(backend.calibration),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def backend_from_json(text: str) -> Backend:
    """Inverse of :func:`backend_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HardwareError(f"invalid backend JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise HardwareError("backend JSON must be an object")
    if payload.get("version") != _FORMAT_VERSION:
        raise HardwareError(
            f"unsupported backend format version {payload.get('version')!r}"
        )
    try:
        coupling = CouplingMap(
            payload["num_qubits"], [tuple(edge) for edge in payload["edges"]]
        )
        return Backend(
            name=payload["name"],
            coupling=coupling,
            calibration=calibration_from_dict(payload["calibration"]),
            supports_dynamic_circuits=bool(payload["supports_dynamic_circuits"]),
        )
    except KeyError as exc:
        raise HardwareError(f"malformed backend payload: missing {exc}") from exc

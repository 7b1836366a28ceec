"""Lossless JSON codec for :class:`~repro.compile_api.CompileReport`.

Cache entries must reproduce a cold compile **field for field** (the
property harness in ``tests/property/test_cache_roundtrip.py`` pins this),
so the codec round-trips every structure exactly:

* circuits as explicit instruction records (name, wires, shortest
  round-trip float params, condition, label) — the QASM exporter is
  *lossy* (labels, clbit register layout), so it is only embedded as a
  human-readable ``qasm`` sidecar, never parsed back;
* metrics and engine stats sinks as plain dicts (JSON floats round-trip
  exactly via ``repr``-style shortest form);
* a ``schema`` stamp (:data:`SCHEMA_VERSION`): any structural change to
  this codec bumps the version, and loaders treat a mismatched stamp as
  a cache miss rather than guessing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.analysis.metrics import CircuitMetrics
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.circuit.qasm.exporter import to_qasm
from repro.compile_api import CompileReport
from repro.exceptions import ServiceError
from repro.stats import Stats

__all__ = [
    "SCHEMA_VERSION",
    "circuit_to_dict",
    "circuit_from_dict",
    "report_to_dict",
    "report_from_dict",
    "dumps_entry",
    "loads_entry",
]

# v2: portfolio fields (strategy, strategy_timings, strategy_errors,
# optimality_gap, exact_optimal) joined the report record
# v3: engine-observability fields (eval_stats, sim_stats) joined the
# report record (the "stats on the wire" item)
# v4: chain-engine observability (chain_stats) joined the report record
SCHEMA_VERSION = 4


def circuit_to_dict(circuit: QuantumCircuit) -> Dict[str, Any]:
    """Lossless circuit record (wires, name, full instruction stream)."""
    return {
        "num_qubits": circuit.num_qubits,
        "num_clbits": circuit.num_clbits,
        "name": circuit.name,
        "instructions": [
            {
                "name": instruction.name,
                "qubits": list(instruction.qubits),
                "clbits": list(instruction.clbits),
                "params": list(instruction.params),
                "condition": (
                    list(instruction.condition)
                    if instruction.condition is not None
                    else None
                ),
                "label": instruction.label,
            }
            for instruction in circuit.data
        ],
    }


def circuit_from_dict(payload: Dict[str, Any]) -> QuantumCircuit:
    """Inverse of :func:`circuit_to_dict`."""
    circuit = QuantumCircuit(
        int(payload["num_qubits"]),
        int(payload["num_clbits"]),
        name=payload.get("name", "circuit"),
    )
    for record in payload["instructions"]:
        condition = record.get("condition")
        circuit.append(
            Instruction(
                name=record["name"],
                qubits=tuple(record["qubits"]),
                clbits=tuple(record["clbits"]),
                params=tuple(record["params"]),
                condition=tuple(condition) if condition is not None else None,
                label=record.get("label"),
            )
        )
    return circuit


def _metrics_to_dict(metrics: Optional[CircuitMetrics]) -> Optional[Dict[str, Any]]:
    if metrics is None:
        return None
    return {
        "qubits_used": metrics.qubits_used,
        "depth": metrics.depth,
        "duration_dt": metrics.duration_dt,
        "swap_count": metrics.swap_count,
        "two_qubit_count": metrics.two_qubit_count,
        "gate_count": metrics.gate_count,
        "reuse_resets": metrics.reuse_resets,
    }


def _metrics_from_dict(payload: Optional[Dict[str, Any]]) -> Optional[CircuitMetrics]:
    if payload is None:
        return None
    return CircuitMetrics(**payload)


def _stats_to_dict(stats: Optional[Stats]) -> Optional[Dict[str, Any]]:
    return None if stats is None else stats.to_dict()


def _stats_from_dict(payload: Optional[Dict[str, Any]]) -> Optional[Stats]:
    return None if payload is None else Stats.from_dict(payload)


def report_to_dict(report: CompileReport) -> Dict[str, Any]:
    """``CompileReport`` -> JSON-compatible dict (plus a QASM sidecar)."""
    return {
        "circuit": circuit_to_dict(report.circuit),
        "mode": report.mode,
        "metrics": _metrics_to_dict(report.metrics),
        "baseline_metrics": _metrics_to_dict(report.baseline_metrics),
        "reuse_beneficial": report.reuse_beneficial,
        "qubit_saving": report.qubit_saving,
        "route_stats": _stats_to_dict(report.route_stats),
        "eval_stats": _stats_to_dict(report.eval_stats),
        "sim_stats": _stats_to_dict(report.sim_stats),
        "strategy": report.strategy,
        "strategy_timings": report.strategy_timings,
        "strategy_errors": report.strategy_errors,
        "optimality_gap": report.optimality_gap,
        "exact_optimal": report.exact_optimal,
        "chain_stats": _stats_to_dict(report.chain_stats),
        # human-readable sidecar only — lossy, never parsed back
        "qasm": to_qasm(report.circuit),
    }


def report_from_dict(payload: Dict[str, Any]) -> CompileReport:
    """Inverse of :func:`report_to_dict` (the loaded report is flagged
    ``from_cache=True``)."""
    return CompileReport(
        circuit=circuit_from_dict(payload["circuit"]),
        mode=payload["mode"],
        metrics=_metrics_from_dict(payload["metrics"]),
        baseline_metrics=_metrics_from_dict(payload["baseline_metrics"]),
        reuse_beneficial=bool(payload["reuse_beneficial"]),
        qubit_saving=float(payload["qubit_saving"]),
        route_stats=_stats_from_dict(payload.get("route_stats")),
        eval_stats=_stats_from_dict(payload.get("eval_stats")),
        sim_stats=_stats_from_dict(payload.get("sim_stats")),
        from_cache=True,
        strategy=payload.get("strategy"),
        strategy_timings=(
            {k: float(v) for k, v in payload["strategy_timings"].items()}
            if payload.get("strategy_timings") is not None
            else None
        ),
        strategy_errors=(
            {k: str(v) for k, v in payload["strategy_errors"].items()}
            if payload.get("strategy_errors") is not None
            else None
        ),
        optimality_gap=(
            int(payload["optimality_gap"])
            if payload.get("optimality_gap") is not None
            else None
        ),
        exact_optimal=(
            bool(payload["exact_optimal"])
            if payload.get("exact_optimal") is not None
            else None
        ),
        chain_stats=_stats_from_dict(payload.get("chain_stats")),
    )


def dumps_entry(key: str, report: CompileReport) -> str:
    """Serialize one cache entry (schema stamp + key + report)."""
    return json.dumps(
        {"schema": SCHEMA_VERSION, "key": key, "report": report_to_dict(report)},
        sort_keys=True,
    )


def loads_entry(text: str, key: Optional[str] = None) -> CompileReport:
    """Decode one cache entry; raise :class:`ServiceError` on anything off.

    Cache tiers catch the error and treat the entry as a miss — a corrupt
    or stale-schema entry must never surface to the caller.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"corrupt cache entry: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
        raise ServiceError(
            f"unsupported cache schema {payload.get('schema') if isinstance(payload, dict) else None!r}"
        )
    if key is not None and payload.get("key") != key:
        raise ServiceError("cache entry key mismatch")
    try:
        return report_from_dict(payload["report"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed cache entry: {exc}") from exc

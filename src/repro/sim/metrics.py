"""Fidelity and distribution metrics.

* TVD (total variation distance) — the paper's Table 3 metric.
* success rate — probability mass on the correct answer.
* ESP (estimated success probability) — the analytic fidelity proxy the
  paper uses when ranking compiled circuits ("depending on the fidelity
  metric, for instance, estimated success probability", Section 3.2.1).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import HardwareError
from repro.hardware.calibration import Calibration
from repro.transpiler.scheduling import schedule_asap

__all__ = [
    "normalize_counts",
    "total_variation_distance",
    "success_rate",
    "hellinger_fidelity",
    "estimated_success_probability",
]


def normalize_counts(counts: Mapping[str, int]) -> Dict[str, float]:
    """Counts -> probability distribution."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty counts")
    return {key: value / total for key, value in counts.items()}


def total_variation_distance(
    p: Mapping[str, float], q: Mapping[str, float]
) -> float:
    """TVD = 1/2 * sum |p(x) - q(x)| over the union of supports.

    Accepts raw counts or normalised distributions.
    """
    p_norm = normalize_counts(p) if any(v > 1 for v in p.values()) or abs(sum(p.values()) - 1) > 1e-6 else dict(p)
    q_norm = normalize_counts(q) if any(v > 1 for v in q.values()) or abs(sum(q.values()) - 1) > 1e-6 else dict(q)
    keys = set(p_norm) | set(q_norm)
    tvd = 0.5 * sum(abs(p_norm.get(k, 0.0) - q_norm.get(k, 0.0)) for k in keys)
    # float summation can land a hair outside the mathematical [0, 1] range
    return min(1.0, max(0.0, tvd))


def success_rate(counts: Mapping[str, int], correct: str) -> float:
    """Fraction of shots landing on the *correct* bitstring."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty counts")
    return counts.get(correct, 0) / total


def hellinger_fidelity(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Classical fidelity (squared Bhattacharyya coefficient)."""
    p_norm = normalize_counts(p)
    q_norm = normalize_counts(q)
    keys = set(p_norm) | set(q_norm)
    bc = sum(math.sqrt(p_norm.get(k, 0.0) * q_norm.get(k, 0.0)) for k in keys)
    return bc**2


def estimated_success_probability(
    circuit: QuantumCircuit,
    calibration: Calibration,
    include_decoherence: bool = True,
    stats=None,
) -> float:
    """Analytic ESP: product of per-instruction success probabilities.

    ESP = prod_g (1 - err(g)) * prod_m (1 - readout(m)) * exp(-idle/T1)

    Gate errors come from the calibration (CX error per link; single-qubit
    error per qubit; SWAP counted as three CX).  When *include_decoherence*
    is set, each qubit contributes exp(-(busy+idle time)/T1) over its
    active window, which penalises long-duration circuits.

    *stats* is an optional :class:`~repro.stats.Stats` sink:
    counters ``esp_two_qubit_evals`` / ``esp_readout_evals`` /
    ``esp_single_qubit_evals`` / ``esp_decoherence_qubits``, the ``esp``
    gauge (the returned value), and the ``esp`` time bucket.
    """
    import time as _time

    start = _time.perf_counter()
    two_qubit_evals = readout_evals = single_qubit_evals = decoherence_qubits = 0
    esp = 1.0
    for instruction in circuit.data:
        if instruction.is_directive() or instruction.name == "delay":
            continue
        if instruction.name == "measure":
            esp *= 1.0 - calibration.get_readout_error(instruction.qubits[0])
            readout_evals += 1
        elif instruction.name == "reset":
            continue
        elif len(instruction.qubits) == 2:
            a, b = instruction.qubits
            try:
                error = calibration.get_cx_error(a, b)
            except HardwareError:
                error = _mean(calibration.cx_error.values())
            if instruction.name == "swap":
                esp *= (1.0 - error) ** 3
            else:
                esp *= 1.0 - error
            two_qubit_evals += 1
        else:
            esp *= 1.0 - calibration.get_sq_error(instruction.qubits[0])
            single_qubit_evals += 1
    if include_decoherence:
        schedule = schedule_asap(circuit, calibration)
        for qubit in circuit.used_qubits():
            window = schedule.qubit_busy_time(qubit) + schedule.qubit_idle_time(qubit)
            t1 = calibration.get_t1(qubit)
            if math.isfinite(t1) and t1 > 0:
                esp *= math.exp(-window / t1)
                decoherence_qubits += 1
    if stats is not None:
        stats.count("esp_two_qubit_evals", two_qubit_evals)
        stats.count("esp_readout_evals", readout_evals)
        stats.count("esp_single_qubit_evals", single_qubit_evals)
        stats.count("esp_decoherence_qubits", decoherence_qubits)
        stats.set_value("esp", esp)
        stats.add_time("esp", _time.perf_counter() - start)
    return esp


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

"""Benchmark registry: the paper's evaluation circuits by name.

Names follow Section 4.1: regular applications ``rd_32``, ``4mod5``,
``multiply_13``, ``system_9``, ``cc_10``, ``xor_5``, ``bv_10`` plus QAOA
instances named ``qaoa<N>-<density>`` (e.g. ``qaoa10-0.3``).  The bundled
QASM programs (:mod:`repro.workloads.qasm_assets`) resolve by name too.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import WorkloadError
from repro.workloads.bv import bv_circuit
from repro.workloads.graphs import random_graph
from repro.workloads.qaoa import qaoa_maxcut_circuit
from repro.workloads.qasm_assets import QASM_PROGRAMS, load_qasm_benchmark
from repro.workloads.revlib import cc_circuit, four_mod5, multiply_13, rd32, system_9, xor5

__all__ = [
    "REGULAR_BENCHMARKS",
    "regular_benchmark",
    "qaoa_benchmark",
    "get_benchmark",
    "benchmark_names",
]

# Seed used for QAOA problem-graph generation throughout the experiments.
QAOA_GRAPH_SEED = 7

REGULAR_BENCHMARKS: Dict[str, Callable[[], QuantumCircuit]] = {
    "rd_32": rd32,
    "4mod5": four_mod5,
    "multiply_13": multiply_13,
    "system_9": system_9,
    "cc_10": lambda: cc_circuit(10),
    "cc_13": lambda: cc_circuit(13),
    "xor_5": xor5,
    "bv_5": lambda: bv_circuit(5),
    "bv_10": lambda: bv_circuit(10),
}

_QAOA_NAME = re.compile(r"^qaoa(\d+)-(\d*\.?\d+)$")


def regular_benchmark(name: str) -> QuantumCircuit:
    """Build a regular (non-commuting) benchmark circuit by name."""
    try:
        return REGULAR_BENCHMARKS[name]()
    except KeyError:
        raise WorkloadError(
            f"unknown regular benchmark {name!r}; "
            f"choices: {sorted(REGULAR_BENCHMARKS)}"
        ) from None


def qaoa_benchmark(name: str, seed: int = QAOA_GRAPH_SEED) -> QuantumCircuit:
    """Build a QAOA benchmark like ``qaoa10-0.3`` (n=10, density=0.3)."""
    match = _QAOA_NAME.match(name)
    if match is None:
        raise WorkloadError(f"bad QAOA benchmark name {name!r} (want qaoaN-D)")
    n = int(match.group(1))
    density = float(match.group(2))
    graph = random_graph(n, density, seed=seed)
    return qaoa_maxcut_circuit(graph)


def get_benchmark(name: str) -> QuantumCircuit:
    """Dispatch to regular, QAOA or bundled QASM benchmarks by name."""
    if name in REGULAR_BENCHMARKS:
        return regular_benchmark(name)
    if _QAOA_NAME.match(name):
        return qaoa_benchmark(name)
    if name in QASM_PROGRAMS:
        return load_qasm_benchmark(name)
    raise WorkloadError(f"unknown benchmark {name!r}")


def benchmark_names() -> List[str]:
    """All registered regular benchmark names."""
    return sorted(REGULAR_BENCHMARKS)

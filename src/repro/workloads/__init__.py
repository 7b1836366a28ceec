"""Benchmark workloads: BV, RevLib-style circuits, QAOA, problem graphs."""

from repro.workloads.bv import bv_circuit, bv_expected_bitstring
from repro.workloads.graphs import (
    edge_count_for_density,
    graph_density,
    power_law_graph,
    random_graph,
)
from repro.workloads.qaoa import (
    QAOA_DEFAULT_BETA,
    QAOA_DEFAULT_GAMMA,
    qaoa_cost_edges,
    qaoa_maxcut_circuit,
)
from repro.workloads.registry import (
    REGULAR_BENCHMARKS,
    benchmark_names,
    get_benchmark,
    qaoa_benchmark,
    regular_benchmark,
)
from repro.workloads.qasm_assets import (
    QASM_PROGRAMS,
    load_qasm_benchmark,
    qasm_benchmark_names,
)
from repro.workloads.revlib import cc_circuit, four_mod5, multiply_13, rd32, system_9, xor5

__all__ = [
    "QASM_PROGRAMS",
    "load_qasm_benchmark",
    "qasm_benchmark_names",
    "bv_circuit",
    "bv_expected_bitstring",
    "random_graph",
    "power_law_graph",
    "graph_density",
    "edge_count_for_density",
    "qaoa_maxcut_circuit",
    "qaoa_cost_edges",
    "QAOA_DEFAULT_GAMMA",
    "QAOA_DEFAULT_BETA",
    "rd32",
    "four_mod5",
    "multiply_13",
    "system_9",
    "cc_circuit",
    "xor5",
    "REGULAR_BENCHMARKS",
    "regular_benchmark",
    "qaoa_benchmark",
    "get_benchmark",
    "benchmark_names",
]

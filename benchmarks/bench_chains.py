"""Chain-engine quality gates: width vs. greedy QS, plus the dual-register win.

Three claims (ISSUE 10 / docs/CHAINS.md):

* the beam-searched :class:`~repro.core.chains.ChainReuse` is **never
  wider** than the greedy QS sweep on benchmark workloads (bv16 and
  QAOA-16) — the greedy guard makes this a hard invariant;
* on at least one pinned workload the chain engine is **strictly
  narrower** than both greedy QS evaluation engines — joint chain
  scoring finds plans one-pair-at-a-time greed cannot;
* in the trapped-ion regime (all-to-all ``iontrap32``), the
  dual-register cost model inserts **fewer mid-circuit measure/reset
  operations** than the generic width-first model on a pinned circuit
  where the two genuinely disagree.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_chains.py``.
"""

import time

import networkx as nx
from conftest import emit, once

from repro.analysis import format_table
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.core import ChainReuse, QSCaQR
from repro.hardware.topologies import get_device
from repro.workloads import bv_circuit, qaoa_maxcut_circuit, random_graph
from tests.oracles import ReferenceQSCaQR

WORKLOADS = [
    ("bv16", lambda: bv_circuit(16)),
    ("qaoa16-0.3", lambda: qaoa_maxcut_circuit(random_graph(16, 0.3, seed=7))),
]

# joint chain scoring beats one-pair-at-a-time greed on these
STRICT_WINS = [
    (
        "qaoa-tree15",
        lambda: qaoa_maxcut_circuit(nx.balanced_tree(2, 3)),
        4,  # chain width
        5,  # both greedy QS engines
    ),
    (
        "random-197",
        lambda: random_circuit(
            8, num_gates=13, seed=197, two_qubit_fraction=0.65, measure=True
        ),
        3,
        4,
    ),
]


def _mixed_ladder(n: int) -> QuantumCircuit:
    """CX chain with only the even qubits measured: half the reuse
    windows end in a terminal measurement, so the generic and
    dual-register cost models pick different plans."""
    circuit = QuantumCircuit(n, n // 2)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    for slot, i in enumerate(range(0, n, 2)):
        circuit.measure(i, slot)
    return circuit


def _measure():
    rows = []
    for name, build in WORKLOADS:
        circuit = build()
        start = time.perf_counter()
        chain = ChainReuse().run(circuit)
        t_chain = time.perf_counter() - start
        start = time.perf_counter()
        greedy = QSCaQR(parallel=False).minimum_qubits(circuit)
        t_greedy = time.perf_counter() - start
        assert chain.qubits <= greedy, (
            f"{name}: chain {chain.qubits} wider than greedy {greedy}"
        )
        rows.append(
            [
                name,
                circuit.num_qubits,
                chain.qubits,
                greedy,
                chain.floor,
                round(t_chain, 3),
                round(t_greedy, 3),
            ]
        )
    for name, build, chain_width, greedy_width in STRICT_WINS:
        circuit = build()
        start = time.perf_counter()
        chain = ChainReuse().run(circuit)
        t_chain = time.perf_counter() - start
        assert chain.qubits == chain_width, (
            f"{name}: chain reached {chain.qubits}, pinned {chain_width}"
        )
        assert not chain.from_greedy, f"{name}: win must come from the beam"
        for engine in (QSCaQR, ReferenceQSCaQR):
            start = time.perf_counter()
            greedy = engine(parallel=False).minimum_qubits(circuit)
            t_greedy = time.perf_counter() - start
            assert greedy == greedy_width, (
                f"{name} {engine.__name__}: greedy reached "
                f"{greedy}, pinned {greedy_width}"
            )
        rows.append(
            [
                name,
                circuit.num_qubits,
                chain.qubits,
                greedy_width,
                chain.floor,
                round(t_chain, 3),
                round(t_greedy, 3),
            ]
        )
    return rows


def _measure_dual():
    """The iontrap32 regime: routing free, measure/reset dominant."""
    circuit = _mixed_ladder(8)
    generic = ChainReuse().run(circuit)
    dual = ChainReuse(
        dual_register=True, register_budget=generic.qubits + 2
    ).run(circuit)
    assert dual.feasible
    assert dual.plan.mid_circuit_ops < generic.plan.mid_circuit_ops, (
        f"dual-register inserted {dual.plan.mid_circuit_ops} mid-circuit "
        f"ops, generic {generic.plan.mid_circuit_ops} — no trapped-ion win"
    )
    assert (generic.qubits, generic.plan.mid_circuit_ops) == (2, 9)
    assert (dual.qubits, dual.plan.mid_circuit_ops) == (4, 5)
    # end-to-end: compiling onto the all-to-all iontrap32 profile flips
    # caqr_compile's chain pipeline into dual-register mode by itself
    logical = caqr_compile(circuit, strategy="chain")
    routed = caqr_compile(
        circuit,
        strategy="chain",
        backend=get_device("iontrap32"),
        mode="min_swap",
    )

    def _mid_ops(report):
        counters = report.chain_stats.counters
        return counters["inserted_measures"] + counters["inserted_resets"]

    assert _mid_ops(routed) < _mid_ops(logical), (
        f"iontrap32 chain compile inserted {_mid_ops(routed)} mid-circuit "
        f"ops, backend-less compile {_mid_ops(logical)}"
    )
    return [
        ["generic", generic.qubits, generic.plan.mid_circuit_ops],
        ["dual-register", dual.qubits, dual.plan.mid_circuit_ops],
        ["caqr_compile (no backend)", logical.metrics.qubits_used, _mid_ops(logical)],
        ["caqr_compile (iontrap32)", routed.metrics.qubits_used, _mid_ops(routed)],
    ]


def test_chain_never_wider_with_strict_wins(benchmark):
    rows = once(benchmark, _measure)
    table = format_table(
        ["workload", "input", "chain", "greedy", "floor", "chain_s", "greedy_s"],
        rows,
    )
    emit("chains", table)


def test_dual_register_reduces_mid_circuit_ops(benchmark):
    rows = once(benchmark, _measure_dual)
    table = format_table(["cost model", "qubits", "mid_circuit_ops"], rows)
    emit("chains_dual", table)

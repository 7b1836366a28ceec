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

Each row also records the beam's valid-merge scans against the
children it built (``scans``: ``WindowAnalysis.chain_merges`` calls over
``states_expanded``; only children whose lower-bound key can still enter
the beam are scanned) and ``ratio``, chain_s over greedy_s.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_chains.py``.
"""

import time
from contextlib import contextmanager

import networkx as nx
from conftest import emit, once

from repro.analysis import format_table
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.core import ChainReuse, QSCaQR
from repro.core.windows import WindowAnalysis
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


@contextmanager
def _counting_scans():
    """Count ``WindowAnalysis.chain_merges`` calls (the valid-merge scan)."""
    kernel = WindowAnalysis.chain_merges
    scans = [0]

    def chain_merges(self, wires, reach):
        scans[0] += 1
        return kernel(self, wires, reach)

    WindowAnalysis.chain_merges = chain_merges
    try:
        yield scans
    finally:
        WindowAnalysis.chain_merges = kernel


def _run_chain(circuit: QuantumCircuit):
    """The default chain engine on *circuit*: result, seconds, scan column."""
    engine = ChainReuse()
    with _counting_scans() as scans:
        start = time.perf_counter()
        chain = engine.run(circuit)
        seconds = time.perf_counter() - start
    expanded = engine.stats.counters.get("states_expanded", 0)
    return chain, seconds, f"{scans[0]}/{expanded}"


def _row(name, circuit, chain, greedy, t_chain, t_greedy, scans):
    return [
        name,
        circuit.num_qubits,
        chain.qubits,
        greedy,
        chain.floor,
        round(t_chain, 3),
        round(t_greedy, 3),
        round(t_chain / t_greedy, 1),
        scans,
    ]


def _measure():
    rows = []
    for name, build in WORKLOADS:
        circuit = build()
        chain, t_chain, scans = _run_chain(circuit)
        start = time.perf_counter()
        greedy = QSCaQR(parallel=False).minimum_qubits(circuit)
        t_greedy = time.perf_counter() - start
        assert chain.qubits <= greedy, (
            f"{name}: chain {chain.qubits} wider than greedy {greedy}"
        )
        rows.append(_row(name, circuit, chain, greedy, t_chain, t_greedy, scans))
    for name, build, chain_width, greedy_width in STRICT_WINS:
        circuit = build()
        chain, t_chain, scans = _run_chain(circuit)
        assert chain.qubits == chain_width, (
            f"{name}: chain reached {chain.qubits}, pinned {chain_width}"
        )
        assert not chain.from_greedy, f"{name}: win must come from the beam"
        seconds = {}
        for engine in (QSCaQR, ReferenceQSCaQR):
            start = time.perf_counter()
            greedy = engine(parallel=False).minimum_qubits(circuit)
            seconds[engine] = time.perf_counter() - start
            assert greedy == greedy_width, (
                f"{name} {engine.__name__}: greedy reached "
                f"{greedy}, pinned {greedy_width}"
            )
        # greedy_s is the production engine's, as on the rows above
        rows.append(
            _row(name, circuit, chain, greedy_width, t_chain, seconds[QSCaQR], scans)
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
        [
            "workload",
            "input",
            "chain",
            "greedy",
            "floor",
            "chain_s",
            "greedy_s",
            "ratio",
            "scans",
        ],
        rows,
    )
    emit("chains", table)


def test_dual_register_reduces_mid_circuit_ops(benchmark):
    rows = once(benchmark, _measure_dual)
    table = format_table(["cost model", "qubits", "mid_circuit_ops"], rows)
    emit("chains_dual", table)

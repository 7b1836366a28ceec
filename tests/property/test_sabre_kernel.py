"""Differential harness: the one SABRE routing loop vs. its referee.

:class:`~repro.transpiler.sabre.RoutingProblem` prepares a circuit once
and runs every routing pass over it, count-only for layout passes; the
referee (:func:`tests.oracles.reference_sabre_route`) rebuilds the DAG
and emits a circuit on every pass.  On random circuits over
``ibm_mumbai``, a line and a grid, and several seeds, this pins:

* ``sabre_route``: routed QASM, SWAP count, initial and final layout;
* ``sabre_layout``: the chosen layout, serial and pooled;
* the stall escape (``_STALL_LIMIT`` patched low in both routers);
* the two errors, in the same order (a >2-qubit gate before a width
  overflow);
* the look-ahead window memo: several passes over one problem, from
  different layouts and seeds, where later passes read windows memoised
  by earlier ones (bv16 and qaoa16-0.3 on ``ibm_mumbai`` revisit fronts
  far more than the small random samples), and a pooled layout search
  on a problem whose memo an opt-2 seed pass has already warmed.

``CAQR_ROUTE_SAMPLES`` (default 40) sets the random-sample count; the
nightly job raises it to 200.
"""

import os

import pytest

import repro.transpiler.sabre as sabre
import tests.oracles as oracles
from repro.circuit import QuantumCircuit, to_qasm
from repro.circuit.random import random_circuit
from repro.exceptions import TranspilerError
from repro.hardware import grid, ibm_mumbai, line
from repro.transpiler.layout import Layout, greedy_degree_layout
from repro.transpiler.sabre import RoutingProblem, sabre_layout, sabre_route, search_layout
from repro.workloads import bv_circuit, get_benchmark
from tests.oracles import reference_sabre_layout, reference_sabre_route

SABRE_SAMPLES = int(os.environ.get("CAQR_ROUTE_SAMPLES", "40"))
POOLED_SAMPLES = 4

COUPLINGS = {
    "ibm_mumbai": lambda: ibm_mumbai().coupling,
    "line12": lambda: line(12),
    "grid3x4": lambda: grid(3, 4),
}


def _sample_circuit(seed: int) -> QuantumCircuit:
    num_qubits = 3 + seed % 9
    circuit = random_circuit(
        num_qubits,
        num_gates=10 + (seed * 7) % 40,
        seed=seed,
        two_qubit_fraction=0.4 + 0.2 * (seed % 3),
        measure=seed % 2 == 0,
    )
    if seed % 4 == 1:
        # a full-width barrier and an explicit swap ride along
        circuit.barrier(*range(num_qubits))
        circuit.swap(0, num_qubits - 1)
        circuit.cx(num_qubits - 1, 0)
    return circuit


def _layout_key(layout: Layout):
    return tuple(layout._l2p), tuple(layout._p2l)


def _route_key(result):
    return (
        to_qasm(result.circuit),
        result.swap_count,
        _layout_key(result.initial_layout),
        _layout_key(result.final_layout),
    )


def _start_layout(seed: int, circuit: QuantumCircuit, num_physical: int) -> Layout:
    order = list(range(num_physical))
    order = order[seed % num_physical :] + order[: seed % num_physical]
    layout = Layout(circuit.num_qubits, num_physical)
    for logical in range(circuit.num_qubits):
        layout.assign(logical, order[logical])
    return layout


@pytest.mark.parametrize("name", sorted(COUPLINGS))
@pytest.mark.parametrize("seed", range(SABRE_SAMPLES))
def test_route_matches_reference(name, seed):
    coupling = COUPLINGS[name]()
    circuit = _sample_circuit(seed)
    layouts = [None, _start_layout(seed, circuit, coupling.num_qubits)]
    for layout in layouts:
        for route_seed in (seed, 7):
            kernel = sabre_route(circuit, coupling, layout, seed=route_seed)
            reference = reference_sabre_route(circuit, coupling, layout, seed=route_seed)
            assert _route_key(kernel) == _route_key(reference)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
@pytest.mark.parametrize("seed", range(0, SABRE_SAMPLES, 2))
def test_count_only_pass_matches_emitting_pass(name, seed):
    coupling = COUPLINGS[name]()
    circuit = _sample_circuit(seed)
    problem = RoutingProblem(circuit, coupling)
    start = _start_layout(seed, circuit, coupling.num_qubits)
    final, swaps = problem.route(start, seed)
    emitted = problem.routed(start, seed)
    assert swaps == emitted.swap_count
    assert _layout_key(final) == _layout_key(emitted.final_layout)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
@pytest.mark.parametrize("seed", range(0, SABRE_SAMPLES, 2))
def test_layout_matches_reference(name, seed):
    coupling = COUPLINGS[name]()
    circuit = _sample_circuit(seed)
    kernel = sabre_layout(circuit, coupling, seed=seed, iterations=2, trials=3, parallel=False)
    reference = reference_sabre_layout(circuit, coupling, seed=seed, iterations=2, trials=3)
    assert _layout_key(kernel) == _layout_key(reference)


@pytest.mark.parametrize("seed", range(POOLED_SAMPLES))
def test_pooled_layout_matches_reference(seed):
    coupling = COUPLINGS[sorted(COUPLINGS)[seed % len(COUPLINGS)]]()
    circuit = _sample_circuit(seed + 5)
    kernel = sabre_layout(circuit, coupling, seed=seed, parallel=True)
    reference = reference_sabre_layout(circuit, coupling, seed=seed)
    assert _layout_key(kernel) == _layout_key(reference)


@pytest.mark.parametrize("limit", [0, 1, 3])
@pytest.mark.parametrize("seed", range(0, SABRE_SAMPLES, 4))
def test_stall_escape_matches_reference(monkeypatch, limit, seed):
    monkeypatch.setattr(sabre, "_STALL_LIMIT", limit)
    monkeypatch.setattr(oracles, "SABRE_STALL_LIMIT", limit)
    for name in sorted(COUPLINGS):
        coupling = COUPLINGS[name]()
        circuit = _sample_circuit(seed)
        kernel = sabre_route(circuit, coupling, seed=seed)
        reference = reference_sabre_route(circuit, coupling, seed=seed)
        assert _route_key(kernel) == _route_key(reference)
        kernel_layout = sabre_layout(circuit, coupling, seed=seed, iterations=1, trials=2, parallel=False)
        reference_layout = reference_sabre_layout(circuit, coupling, seed=seed, iterations=1, trials=2)
        assert _layout_key(kernel_layout) == _layout_key(reference_layout)


def test_pooled_stall_escape_matches_reference(monkeypatch):
    monkeypatch.setattr(sabre, "_STALL_LIMIT", 1)
    monkeypatch.setattr(oracles, "SABRE_STALL_LIMIT", 1)
    coupling = ibm_mumbai().coupling
    circuit = _sample_circuit(6)
    kernel = sabre_layout(circuit, coupling, seed=3, parallel=True)
    assert _layout_key(kernel) == _layout_key(reference_sabre_layout(circuit, coupling, seed=3))


MEMO_CASES = {
    "bv16/ibm_mumbai": (lambda: bv_circuit(16), COUPLINGS["ibm_mumbai"]),
    "qaoa16-0.3/ibm_mumbai": (lambda: get_benchmark("qaoa16-0.3"), COUPLINGS["ibm_mumbai"]),
    "random-s7/grid3x4": (lambda: _sample_circuit(7), COUPLINGS["grid3x4"]),
    "random-s17/line12": (lambda: _sample_circuit(17), COUPLINGS["line12"]),
}


class _CountingWindows(dict):
    """A window memo that counts lookups of fronts memoised before
    :meth:`new_pass` was last called."""

    def __init__(self):
        super().__init__()
        self.earlier = set()
        self.hits = 0

    def new_pass(self):
        self.earlier = set(self)
        self.hits = 0

    def get(self, key, default=None):
        self.hits += key in self.earlier
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_passes_over_one_problem_read_earlier_windows(name):
    build_circuit, build_coupling = MEMO_CASES[name]
    circuit, coupling = build_circuit(), build_coupling()
    problem = RoutingProblem(circuit, coupling)
    problem.windows = windows = _CountingWindows()
    later_hits = 0
    for position, (shift, seed) in enumerate([(0, 3), (0, 3), (5, 3), (5, 8), (11, 21)]):
        windows.new_pass()
        start = _start_layout(shift, circuit, coupling.num_qubits)
        kernel = problem.routed(start, seed)
        reference = reference_sabre_route(circuit, coupling, start, seed=seed)
        assert _route_key(kernel) == _route_key(reference), f"pass {position}"
        if position:
            later_hits += windows.hits
    assert later_hits > 0


@pytest.mark.parametrize("name", ["bv16/ibm_mumbai", "qaoa16-0.3/ibm_mumbai"])
def test_pooled_search_on_a_warm_problem(name):
    build_circuit, build_coupling = MEMO_CASES[name]
    circuit, coupling = build_circuit(), build_coupling()
    problem = RoutingProblem(circuit, coupling)
    # the opt-2 seed pass transpile() runs before its layout search
    degrees = dict(circuit.interaction_graph().degree())
    problem.route(greedy_degree_layout(degrees, coupling, circuit.num_qubits), 5)
    assert problem.windows
    pooled = search_layout(problem, seed=5, iterations=2, trials=2, parallel=True)
    serial = search_layout(problem, seed=5, iterations=2, trials=2, parallel=False)
    reference = reference_sabre_layout(circuit, coupling, seed=5, iterations=2, trials=2)
    assert _layout_key(pooled) == _layout_key(serial) == _layout_key(reference)


def _wide_ccx() -> QuantumCircuit:
    circuit = QuantumCircuit(5)
    circuit.cx(0, 1)
    circuit.ccx(0, 1, 2)
    return circuit


@pytest.mark.parametrize(
    "router", [sabre_route, reference_sabre_route], ids=["kernel", "reference"]
)
class TestErrors:
    def test_three_qubit_gate(self, router):
        with pytest.raises(TranspilerError, match="<=2-qubit gates, got ccx"):
            router(_wide_ccx(), line(5))

    def test_width_overflow(self, router):
        with pytest.raises(TranspilerError, match="5 logical qubits exceed device size 3"):
            router(random_circuit(5, num_gates=6, seed=1), line(3))

    def test_arity_is_reported_before_width(self, router):
        with pytest.raises(TranspilerError, match="<=2-qubit gates"):
            router(_wide_ccx(), line(3))


def test_layout_reports_arity_like_the_reference():
    with pytest.raises(TranspilerError, match="<=2-qubit gates, got ccx"):
        sabre_layout(_wide_ccx(), line(5), parallel=False)
    with pytest.raises(TranspilerError, match="<=2-qubit gates, got ccx"):
        reference_sabre_layout(_wide_ccx(), line(5))

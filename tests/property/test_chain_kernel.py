"""Differential harness: the incremental chain-state kernel vs. its referee.

:class:`~repro.core.windows.WindowAnalysis` keeps each chain state's
reach rows as bitsets and updates them per merge; the chain beam and
the exact branch-and-bound both search through it.  This harness wraps
``chain_merges`` so that at every state either engine scores it checks:

* the incremental reach rows equal the from-scratch barrier closure
  (:func:`tests.oracles.reference_reach`);
* ``(options, rows)`` equal the set-based valid-merge scan
  (:func:`tests.oracles.reference_chain_merges`).

It runs on the benchmark circuits bv16, qaoa16-0.3 and qaoa-tree15 and
on ``CAQR_CHAIN_SAMPLES`` random circuits from the chain harness's pool
(default 200; the nightly ``chain-diff`` CI job runs 500).  The exact
engine runs under a node budget here: every state it visits is checked,
and the budget keeps the from-scratch referee affordable.

The same circuits referee the beam itself: :meth:`ChainReuse.search`
ranks children by a lower-bound key and scans only those that can enter
the beam, and must return what the eager beam
(:func:`tests.oracles.reference_chain_search`) returns, with the same
``states_expanded``/``states_dropped``.  The floor lemma the lower bound
rests on (a valid child's floor is never below its parent's) is checked
on random walks through the kernel.
"""

import random
from typing import Dict, List, Set, Tuple

import networkx as nx
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.chains import ChainReuse
from repro.core.exact import ExactReuse
from repro.core.windows import Reach, State, WindowAnalysis
from repro.workloads import bv_circuit, qaoa_maxcut_circuit, random_graph
from tests.oracles import (
    reference_canonical,
    reference_chain_merges,
    reference_chain_search,
    reference_reach,
)
from tests.property.test_chain_windows import CHAIN_SAMPLES, _sample_circuit

EXACT_NODES = 400

NAMED = {
    "bv16": lambda: bv_circuit(16),
    "qaoa16-0.3": lambda: qaoa_maxcut_circuit(random_graph(16, 0.3, seed=7)),
    "qaoa-tree15": lambda: qaoa_maxcut_circuit(nx.balanced_tree(2, 3)),
}


def _as_rows(reach: Dict[int, Set[int]], num_qubits: int) -> Reach:
    return tuple(
        sum(1 << x for x in reach.get(q, ())) for q in range(num_qubits)
    )


@pytest.fixture
def checked_kernel(monkeypatch):
    """Referee every ``chain_merges`` call; yields the list of states seen."""
    kernel = WindowAnalysis.chain_merges
    states = []

    def chain_merges(self: WindowAnalysis, wires: State, reach: Reach):
        expected = _as_rows(reference_reach(self, wires), self.num_qubits)
        assert reach == expected, f"reach rows diverge at {wires}"
        result = kernel(self, wires, reach)
        assert result == reference_chain_merges(self, wires), (
            f"valid merges diverge at {wires}"
        )
        states.append(wires)
        return result

    monkeypatch.setattr(WindowAnalysis, "chain_merges", chain_merges)
    return states


def _check_engines(circuit: QuantumCircuit, states) -> None:
    ChainReuse().run(circuit)
    beam_states = len(states)
    assert beam_states >= 1
    ExactReuse(max_nodes=EXACT_NODES).run(circuit)
    assert len(states) > beam_states


@pytest.mark.parametrize("name", sorted(NAMED))
def test_kernel_matches_reference_on_benchmark_circuits(name, checked_kernel):
    _check_engines(NAMED[name](), checked_kernel)
    # the beam reaches merged states, so the update rule is exercised
    assert any(len(wires) < len(checked_kernel[0]) for wires in checked_kernel)


@pytest.mark.parametrize("seed", range(CHAIN_SAMPLES))
def test_kernel_matches_reference_on_random_circuits(seed, checked_kernel):
    _check_engines(_sample_circuit(seed), checked_kernel)


def _random_states(analysis: WindowAnalysis, seed: int, count: int) -> List[State]:
    """Random chain states over the analysis' qubits, each also with its
    wires in a shuffled order (which must not change the key)."""
    rng = random.Random(seed)
    states: List[State] = []
    qubits = list(range(analysis.num_qubits))
    for _ in range(count):
        rng.shuffle(qubits)
        wires, start = [], 0
        while start < len(qubits):
            size = rng.randint(1, 3)
            wires.append(tuple(qubits[start : start + size]))
            start += size
        states.append(tuple(wires))
        rng.shuffle(wires)
        states.append(tuple(wires))
    return states


@pytest.mark.parametrize(
    "circuit",
    [bv_circuit(5), bv_circuit(7), _sample_circuit(3), _sample_circuit(10)],
    ids=["bv5", "bv7", "random-3", "random-10"],
)
def test_state_keys_agree_with_frozenset_keys(circuit):
    """``canonical`` is bytes, and two states share a bytes key exactly
    when they share the frozenset key."""
    analysis = WindowAnalysis(circuit)
    states = _random_states(analysis, analysis.num_qubits, 60)
    keys = [analysis.canonical(wires) for wires in states]
    references = [reference_canonical(analysis, wires) for wires in states]
    assert all(isinstance(key, bytes) for key in keys)
    equal = 0
    for i in range(len(states)):
        for j in range(len(states)):
            same = keys[i] == keys[j]
            assert same == (references[i] == references[j]), (states[i], states[j])
            equal += same and i != j
    assert equal >= len(states) // 2, "too few equal pairs to test the key"


# -- the beam against the eager referee ------------------------------------------

#: Engine settings the lower-bound ranking must agree with the eager sort
#: on: every objective, both dual-register stopping rules, a register
#: budget, and narrow beams that drop most children even on small circuits.
SEARCH_CONFIGS = {
    "qubits": {},
    "depth": {"objective": "depth"},
    "est_error": {"objective": "est_error"},
    "dual": {"dual_register": True},
    "dual-budget": {"dual_register": True, "register_budget": 4},
    "budget": {"register_budget": 3},
    "depth-narrow": {"objective": "depth", "beam_width": 2},
    "est_error-narrow": {"objective": "est_error", "beam_width": 1},
}


def _search_both(circuit: QuantumCircuit, options: Dict) -> None:
    analysis = WindowAnalysis(circuit)
    engine = ChainReuse(**options)
    referee = ChainReuse(**options)
    plans, floor = engine.search(analysis)
    expected_plans, expected_floor = reference_chain_search(referee, analysis)
    assert floor == expected_floor
    # pairs, chains, width and inserted measures/resets
    assert plans == expected_plans
    for name in ("states_expanded", "states_dropped"):
        assert engine.stats.counters.get(name) == referee.stats.counters.get(name), name


@pytest.mark.parametrize("config", sorted(SEARCH_CONFIGS))
@pytest.mark.parametrize("name", sorted(NAMED))
def test_search_matches_eager_beam_on_benchmark_circuits(name, config):
    _search_both(NAMED[name](), SEARCH_CONFIGS[config])


@pytest.mark.parametrize("seed", range(CHAIN_SAMPLES))
def test_search_matches_eager_beam_on_random_circuits(seed):
    circuit = _sample_circuit(seed)
    for options in SEARCH_CONFIGS.values():
        _search_both(circuit, options)


def _floors_along_a_walk(circuit: QuantumCircuit, seed: int) -> int:
    """Walk random valid merges from the root; at every state, check each
    valid child's floor against the state's.  Returns the children seen."""
    analysis = WindowAnalysis(circuit)
    rng = random.Random(seed)
    wires, reach = analysis.initial_state(), analysis.initial_reach()
    options, rows = analysis.chain_merges(wires, reach)
    floor = analysis.chain_floor(wires, rows)
    checked = 0
    while options:
        children: List[Tuple[State, Reach, List, int]] = []
        for u, v in options:
            child_wires = WindowAnalysis.merge(wires, u, v)
            child_reach = analysis.merge_reach(reach, wires, u, v)
            child_options, child_rows = analysis.chain_merges(child_wires, child_reach)
            child_floor = analysis.chain_floor(child_wires, child_rows)
            assert child_floor >= floor, (
                f"merge {(u, v)} of {wires} lowers the floor {floor} -> {child_floor}"
            )
            children.append((child_wires, child_reach, child_options, child_floor))
        checked += len(children)
        wires, reach, options, floor = rng.choice(children)
    return checked


@pytest.mark.parametrize("name", sorted(NAMED))
def test_child_floor_never_below_parent_on_benchmark_circuits(name):
    circuit = NAMED[name]()
    assert sum(_floors_along_a_walk(circuit, seed) for seed in range(3)) > 0


@pytest.mark.parametrize("seed", range(CHAIN_SAMPLES))
def test_child_floor_never_below_parent_on_random_circuits(seed):
    _floors_along_a_walk(_sample_circuit(seed), seed)


@pytest.mark.parametrize("name", ["bv16", "qaoa-tree15"])
def test_beam_scans_at_most_a_fifth_of_its_children(name, monkeypatch):
    """Only children whose lower bound can still enter the beam pay for
    the valid-merge scan: at most a fifth of ``states_expanded``."""
    kernel = WindowAnalysis.chain_merges
    scans = []

    def chain_merges(self: WindowAnalysis, wires: State, reach: Reach):
        scans.append(wires)
        return kernel(self, wires, reach)

    monkeypatch.setattr(WindowAnalysis, "chain_merges", chain_merges)
    engine = ChainReuse()
    engine.search(WindowAnalysis(NAMED[name]()))
    expanded = engine.stats.counters["states_expanded"]
    assert 5 * len(scans) <= expanded, f"{len(scans)} scans for {expanded} children"

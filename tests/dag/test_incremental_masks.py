"""Regression tests for the incremental descendants-bitset updates.

The incremental engine never recomputes the full reachability closure
during a sweep — ``update_masks_for_node`` patches the cached bitsets in
place, and :class:`repro.core.session.ReuseSession` relies on those
patches staying *bit-for-bit identical* to a from-scratch
:func:`repro.dag.reachability.descendants_bitsets` recomputation after
every ``apply``.  These tests pin that identity, including the
Condition-2 ordering and cycle-adjacent edge cases.
"""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.core.conditions import ReuseAnalysis
from repro.core.session import ReuseSession
from repro.dag.dagcircuit import DAGCircuit
from repro.dag.reachability import descendants_bitsets, update_masks_for_node
from repro.workloads.bv import bv_circuit


def _assert_masks_exact(dag, masks):
    fresh = descendants_bitsets(dag)
    assert masks.keys() == fresh.keys()
    for node_id, expected in fresh.items():
        assert masks[node_id] == expected, (
            f"node {node_id}: incremental mask {masks[node_id]:b} != "
            f"recomputed {expected:b}"
        )


class TestUpdateMasksForNode:
    def test_fresh_sink_node(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        dag = DAGCircuit.from_circuit(circuit)
        masks = descendants_bitsets(dag)
        dummy = dag.add_virtual_node(weight=1, tag="d")
        for node_id in dag.op_nodes(include_directives=True):
            if node_id != dummy:
                dag.add_edge(node_id, dummy)
        changed = update_masks_for_node(dag, masks, dummy)
        _assert_masks_exact(dag, masks)
        assert dummy in changed

    def test_mid_graph_splice(self):
        # the reuse shape: new node below all of qubit 0, above all of qubit 1
        circuit = bv_circuit(4)
        dag = DAGCircuit.from_circuit(circuit)
        masks = descendants_bitsets(dag)
        dummy = dag.add_virtual_node(weight=1, tag="d")
        for node_id in dag.nodes_on_qubit(0):
            dag.add_edge(node_id, dummy)
        for node_id in dag.nodes_on_qubit(1):
            dag.add_edge(dummy, node_id)
        update_masks_for_node(dag, masks, dummy)
        _assert_masks_exact(dag, masks)


class TestSessionMaskConsistency:
    """The session's live masks stay exact across a full greedy sweep."""

    def _drain(self, circuit):
        session = ReuseSession(circuit)
        _assert_masks_exact(session.dag, session.masks)
        while True:
            pairs = session.valid_pairs()
            if not pairs:
                break
            session.apply(pairs[0])
            _assert_masks_exact(session.dag, session.masks)
            assert not session.dag.has_cycle()
        return session

    def test_bv_full_reduction(self):
        session = self._drain(bv_circuit(6))
        assert session.num_qubits == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_random_circuits(self, seed):
        circuit = random_circuit(
            4 + seed % 3, num_gates=10 + seed, seed=seed, measure=seed % 2 == 0
        )
        self._drain(circuit)

    def test_condition2_ordering_case(self):
        # 0 -> 1 dependency chain: (1, 0) violates Condition 2, (0, 1) is
        # fine; after applying it the masks must show the merged ordering
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 2)
        circuit.cx(2, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        session = ReuseSession(circuit)
        pairs = {(p.source, p.target) for p in session.valid_pairs()}
        assert (0, 1) in pairs
        assert (1, 0) not in pairs
        session.apply(next(p for p in session.valid_pairs() if (p.source, p.target) == (0, 1)))
        _assert_masks_exact(session.dag, session.masks)
        # the session's pair view still matches a from-scratch analysis
        fresh = {
            (p.source, p.target)
            for p in ReuseAnalysis(session.circuit).valid_pairs()
        }
        live = {(p.source, p.target) for p in session.valid_pairs()}
        assert live == fresh

    def test_session_valid_pairs_match_analysis_each_step(self):
        circuit = bv_circuit(5)
        session = ReuseSession(circuit)
        while True:
            live = [(p.source, p.target) for p in session.valid_pairs()]
            fresh = [
                (p.source, p.target)
                for p in ReuseAnalysis(session.circuit).valid_pairs()
            ]
            assert live == fresh
            if not live:
                break
            session.apply(session.valid_pairs()[0])

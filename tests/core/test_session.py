"""Unit tests for the incremental evaluation engine's building blocks:
:class:`repro.core.session.ReuseSession` and
:func:`repro.core.evaluate.batch_pair_costs`.

The end-to-end engine-vs-reference identity lives in
``tests/property/test_equivalence_diff.py``; these tests pin the pieces
in isolation — batched costs vs. the per-pair evaluators, and the
session's wire bookkeeping and lookahead.
"""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.core.conditions import ReuseAnalysis
from repro.core.evaluate import (
    batch_pair_costs,
    evaluate_pair_depth,
    evaluate_pair_duration,
    tail_path_lengths,
)
from repro.core.session import ReuseSession
from repro.dag.analysis import critical_path_length, node_weight_depth
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import ReuseError
from repro.workloads.bv import bv_circuit


class TestBatchPairCosts:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_depth(self, seed):
        circuit = random_circuit(5, num_gates=14, seed=seed, measure=True)
        analysis = ReuseAnalysis(circuit)
        pairs = analysis.valid_pairs()
        if not pairs:
            pytest.skip("no valid pairs for this seed")
        batched = batch_pair_costs(analysis.dag, pairs, objective="depth")
        for pair, cost in zip(pairs, batched):
            assert cost == evaluate_pair_depth(analysis.dag, pair)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("reset_style", ["cif", "builtin"])
    def test_matches_per_pair_duration(self, seed, reset_style):
        circuit = random_circuit(5, num_gates=14, seed=seed, measure=True)
        analysis = ReuseAnalysis(circuit)
        pairs = analysis.valid_pairs()
        if not pairs:
            pytest.skip("no valid pairs for this seed")
        batched = batch_pair_costs(
            analysis.dag, pairs, objective="duration", reset_style=reset_style
        )
        for pair, cost in zip(pairs, batched):
            assert cost == evaluate_pair_duration(
                analysis.dag, pair, reset_style
            )

    def test_unknown_objective_rejected(self):
        dag = DAGCircuit.from_circuit(bv_circuit(3))
        with pytest.raises(ReuseError):
            batch_pair_costs(dag, [], objective="fidelity")

    def test_tail_plus_finish_covers_critical_path(self):
        dag = DAGCircuit.from_circuit(bv_circuit(4))
        tails = tail_path_lengths(dag, node_weight_depth)
        assert max(tails.values()) == critical_path_length(
            dag, node_weight_depth
        )


class TestReuseSession:
    def test_unknown_reset_style_rejected(self):
        with pytest.raises(ReuseError):
            ReuseSession(bv_circuit(3), reset_style="zap")

    def test_valid_pairs_match_analysis(self):
        circuit = bv_circuit(5)
        session = ReuseSession(circuit)
        live = [(p.source, p.target) for p in session.valid_pairs()]
        fresh = [
            (p.source, p.target)
            for p in ReuseAnalysis(circuit).valid_pairs()
        ]
        assert live == fresh

    def test_apply_tracks_materialised_circuit(self):
        session = ReuseSession(bv_circuit(5))
        start = session.num_qubits
        session.apply(session.valid_pairs()[0])
        assert session.num_qubits == start - 1
        assert session.circuit.num_qubits == start - 1
        assert len(session.pairs) == 1
        assert session.generation == 1
        assert session.stats.counters["steps"] == 1
        assert session.stats.counters["mask_updates"] > 0

    def test_potentials_match_reference_lookahead(self):
        from repro.core.transform import apply_reuse_pair
        from tests.oracles import reuse_potential

        circuit = bv_circuit(5)
        session = ReuseSession(circuit)
        pairs = session.valid_pairs()
        potentials = session.reuse_potentials(pairs)
        for pair in pairs:
            transformed = apply_reuse_pair(
                circuit, pair, validate=False
            ).circuit
            assert potentials[pair] == reuse_potential(transformed), pair

    def test_nx_oracle_kernel_scores_the_serial_lookahead(self):
        from repro.core import session as session_module
        from tests.oracles import nx_lookahead_kernel, nx_potential

        bitset_kernel = session_module._potential_for_candidate
        session = ReuseSession(bv_circuit(6), parallel=False)
        pairs = session.valid_pairs()
        fast = session.reuse_potentials(pairs)
        with nx_lookahead_kernel():
            assert session_module._potential_for_candidate is nx_potential
            oracle = ReuseSession(bv_circuit(6), parallel=False)
            slow = oracle.reuse_potentials(pairs)
        assert session_module._potential_for_candidate is bitset_kernel
        assert slow == fast

    def test_degenerate_circuit_no_pairs(self):
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        session = ReuseSession(circuit)
        assert session.valid_pairs() == []

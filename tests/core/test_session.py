"""Unit tests for the incremental evaluation engine's building blocks:
:class:`repro.core.session.ReuseSession` and
:class:`repro.core.evaluate.PairScorer` / :func:`batch_pair_costs`.

The end-to-end engine-vs-reference identity lives in
``tests/property/test_equivalence_diff.py``; these tests pin the pieces
in isolation — batched costs vs. the per-pair evaluators, the memo, and
the serial-fallback threshold.
"""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.core.conditions import ReuseAnalysis
from repro.core.evaluate import (
    PairScorer,
    batch_pair_costs,
    evaluate_pair_depth,
    evaluate_pair_duration,
    tail_path_lengths,
)
from repro.core.session import ReuseSession
from repro.dag.analysis import critical_path_length, node_weight_depth
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import ReuseError
from repro.stats import Stats
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


class TestPairScorer:
    def test_memo_counts_hits_until_invalidated(self):
        circuit = bv_circuit(5)
        analysis = ReuseAnalysis(circuit)
        pairs = analysis.valid_pairs()
        stats = Stats()
        with PairScorer(stats=stats, parallel=False) as scorer:
            first = scorer.score_all(analysis.dag, pairs)
            again = scorer.score_all(analysis.dag, pairs)
            assert first == again
            assert stats.counters["evaluations"] == len(pairs)
            assert stats.counters["cache_hits"] == len(pairs)
            scorer.invalidate()
            scorer.score_all(analysis.dag, pairs)
            assert stats.counters["evaluations"] == 2 * len(pairs)

    def test_small_batches_stay_serial(self):
        """Below the workload threshold no process pool is spawned."""
        circuit = bv_circuit(5)
        analysis = ReuseAnalysis(circuit)
        stats = Stats()
        with PairScorer(stats=stats, parallel=True) as scorer:
            scorer.score_all(analysis.dag, analysis.valid_pairs())
            assert scorer._executor is None
            assert stats.counters.get("serial_batches", 0) == 1
            assert stats.counters.get("parallel_batches", 0) == 0

    def test_forced_parallel_matches_serial_scores(self):
        circuit = bv_circuit(8)
        analysis = ReuseAnalysis(circuit)
        pairs = analysis.valid_pairs()
        stats = Stats()
        with PairScorer(
            stats=stats, parallel=True, parallel_threshold=0, max_workers=2
        ) as forced:
            parallel_scores = forced.score_all(analysis.dag, pairs)
            assert stats.counters["parallel_batches"] == 1
        with PairScorer(parallel=False) as serial:
            assert parallel_scores == serial.score_all(analysis.dag, pairs)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ReuseError):
            PairScorer(objective="fidelity")


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

    def test_potentials_memoised_per_step(self):
        session = ReuseSession(bv_circuit(5))
        pairs = session.valid_pairs()
        session.reuse_potentials(pairs)
        computed = session.stats.counters["lookahead_evaluations"]
        session.reuse_potentials(pairs)
        assert session.stats.counters["lookahead_evaluations"] == computed
        assert session.stats.counters["cache_hits"] == len(pairs)
        session.apply(pairs[0])
        session.reuse_potentials(session.valid_pairs())
        assert session.stats.counters["lookahead_evaluations"] > computed

    def test_degenerate_circuit_no_pairs(self):
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        session = ReuseSession(circuit)
        assert session.valid_pairs() == []

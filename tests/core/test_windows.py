"""Unit tests for gate-level reuse windows (the chain subsystem's analysis half)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.core import ReusePair, WindowAnalysis, valid_reuse_pairs
from repro.exceptions import ReuseError
from repro.workloads import bv_circuit


def _ladder(n: int) -> QuantumCircuit:
    """CX chain q0->q1->...->q{n-1}, all measured."""
    circuit = QuantumCircuit(n, n)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    for i in range(n):
        circuit.measure(i, i)
    return circuit


class TestReuseWindow:
    def test_ladder_windows_have_staggered_intervals(self):
        analysis = WindowAnalysis(_ladder(4))
        w0, w3 = analysis.window(0), analysis.window(3)
        assert w0.birth_layer == 0
        assert w0.death_layer < w3.death_layer
        assert w0.dies_mid_circuit
        assert not w3.dies_mid_circuit
        assert w3.tail_slack == 0
        assert w0.tail_slack > 0

    def test_terminal_measure_flag(self):
        analysis = WindowAnalysis(_ladder(3))
        assert all(analysis.window(q).terminal_measure for q in range(3))
        bare = QuantumCircuit(2, 1)
        bare.cx(0, 1)
        bare.measure(1, 0)
        windows = WindowAnalysis(bare)
        assert not windows.window(0).terminal_measure
        assert windows.window(1).terminal_measure

    def test_mid_circuit_ops_counted_per_window(self):
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.reset(0)
        circuit.h(0)
        circuit.measure(0, 1)
        window = WindowAnalysis(circuit).window(0)
        assert window.mid_circuit_ops == 2  # the inner measure + reset
        assert window.terminal_measure

    def test_idle_wire_has_empty_window(self):
        circuit = QuantumCircuit(3, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        window = WindowAnalysis(circuit).window(2)
        assert not window.used
        assert window.span_layers == 0
        assert not window.dies_mid_circuit

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ReuseError):
            WindowAnalysis(_ladder(3)).window(3)

    def test_mid_circuit_windows_sorted_by_death(self):
        analysis = WindowAnalysis(_ladder(5))
        dying = analysis.mid_circuit_windows()
        deaths = [w.death_layer for w in dying]
        assert deaths == sorted(deaths)
        # q3's measure shares the final layer with q4's, so it does not
        # die mid-circuit; the first three all do
        assert [w.qubit for w in dying] == [0, 1, 2]


class TestPairCompatibility:
    @pytest.mark.parametrize("circuit", [_ladder(5), bv_circuit(5)])
    def test_matches_the_paper_conditions(self, circuit):
        """Window compatibility is exactly the CaQR pair validity —
        the interval prune is an optimisation, not a relaxation."""
        analysis = WindowAnalysis(circuit)
        expected = {(p.source, p.target) for p in valid_reuse_pairs(circuit)}
        got = {(p.source, p.target) for p in analysis.compatible_pairs()}
        assert got == expected

    def test_self_and_idle_pairs_rejected(self):
        circuit = QuantumCircuit(3, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        analysis = WindowAnalysis(circuit)
        assert not analysis.compatible(0, 0)
        assert not analysis.compatible(0, 2)  # idle target
        assert not analysis.compatible(2, 0)  # idle source

    def test_matching_bound_is_a_true_floor(self):
        circuit = bv_circuit(5)
        analysis = WindowAnalysis(circuit)
        floor = circuit.num_qubits - analysis.matching_bound()
        assert floor == 2  # BV compresses to exactly 2 qubits


class TestChainLifting:
    def test_merge_appends_target_chain(self):
        wires = ((0,), (1,), (2,))
        merged = WindowAnalysis.merge(wires, 0, 2)
        assert merged == ((0, 2), (1,))
        again = WindowAnalysis.merge(merged, 0, 1)
        assert again == ((0, 2, 1),)

    def test_chain_merges_shrink_after_each_merge(self):
        analysis = WindowAnalysis(_ladder(4))
        wires, reach = analysis.initial_state(), analysis.initial_reach()
        options, rows = analysis.chain_merges(wires, reach)
        # adjacent qubits share a CX (Condition 1), so merges skip a rung
        assert (0, 2) in options and (0, 1) not in options
        merged = WindowAnalysis.merge(wires, 0, 2)
        fewer, _ = analysis.chain_merges(
            merged, analysis.merge_reach(reach, wires, 0, 2)
        )
        assert len(fewer) < len(options)

    def test_chain_floor_matches_pair_floor_at_root(self):
        analysis = WindowAnalysis(bv_circuit(5))
        wires = analysis.initial_state()
        _, rows = analysis.chain_merges(wires, analysis.initial_reach())
        assert analysis.chain_floor(wires, rows) == 2

    def test_initial_reach_is_the_dependency_matrix(self):
        """Root rows carry exactly the original qubit dependencies."""
        analysis = WindowAnalysis(_ladder(4))
        reach = analysis.initial_reach()
        for a in range(4):
            for b in range(4):
                assert bool(reach[a] >> b & 1) == analysis._dep.get((a, b), False)

    def test_merge_reach_adds_the_barrier(self):
        """Merging q0 -> q2 on the ladder puts a barrier after q0: q0's
        row and every row reaching q0 gain q2 and q2's row; rows that
        do not reach q0 keep theirs."""
        analysis = WindowAnalysis(_ladder(4))
        wires, reach = analysis.initial_state(), analysis.initial_reach()
        after = analysis.merge_reach(reach, wires, 0, 2)
        gain = reach[2] | 1 << 2
        assert after[0] == reach[0] | gain
        assert after[1] == reach[1] | gain  # q1 shares q0's CX
        assert after[3] == reach[3]  # q3 never touches q0
        assert after[2] == reach[2]  # q2 cannot reach q0 (Condition 2)

    def test_chain_options_respect_pair_validity(self):
        """Chain merges lift the pair conditions member-wise: after a
        legal merge, every remaining option is still pairwise valid and
        never pairs chains whose members share a gate."""
        circuit = _ladder(4)
        analysis = WindowAnalysis(circuit)
        wires = analysis.initial_state()
        merged = WindowAnalysis.merge(wires, 0, 2)
        options, _ = analysis.chain_merges(
            merged, analysis.merge_reach(analysis.initial_reach(), wires, 0, 2)
        )
        for u, v in options:
            for a in merged[u]:
                for b in merged[v]:
                    assert b not in analysis._interacts[a]
        # the singleton-chain options are exactly the compatible pairs
        singles = {
            (merged[u][0], merged[v][0])
            for u, v in options
            if len(merged[u]) == 1 and len(merged[v]) == 1
        }
        for source, target in singles:
            assert analysis.compatible(source, target)

    def test_canonical_interns_symmetric_states(self):
        """GHZ-style symmetric targets intern alike: merging onto either
        of two interchangeable qubits yields the same canonical key."""
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.h(1)
        circuit.h(2)
        circuit.measure(1, 1)
        circuit.measure(2, 2)
        analysis = WindowAnalysis(circuit)
        wires = analysis.initial_state()
        via_1 = WindowAnalysis.merge(wires, 0, 1)
        via_2 = WindowAnalysis.merge(wires, 0, 2)
        assert analysis.canonical(via_1) == analysis.canonical(via_2)

    def test_initial_state_covers_every_wire(self):
        analysis = WindowAnalysis(_ladder(3))
        assert analysis.initial_state() == ((0,), (1,), (2,))

    def test_pairs_are_reuse_pairs(self):
        pairs = WindowAnalysis(_ladder(3)).compatible_pairs()
        assert pairs and all(isinstance(p, ReusePair) for p in pairs)

"""Unit tests for the chain beam search (the subsystem's search half)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.library import ghz
from repro.core import ChainReuse, QSCaQR
from repro.core.transform import apply_reuse_chain
from repro.exceptions import ReuseError
from repro.sim.verify import assert_equivalent
from repro.stats import Stats
from repro.workloads import bv_circuit


def _mixed_ladder(n: int) -> QuantumCircuit:
    """CX chain with only the even qubits measured — half the windows
    end in a terminal measurement, half do not, so the generic and
    dual-register cost models genuinely disagree."""
    circuit = QuantumCircuit(n, n // 2)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    for slot, i in enumerate(range(0, n, 2)):
        circuit.measure(i, slot)
    return circuit


class TestChainSearch:
    def test_bv_reaches_the_known_optimum(self):
        result = ChainReuse().run(bv_circuit(5))
        assert result.qubits == 2
        assert result.floor == 2
        assert not result.from_greedy
        assert_equivalent(bv_circuit(5), result.circuit)

    def test_result_plan_replays_through_the_transform_layer(self):
        """The emitted pairs are per-step wire labels — replaying them
        through apply_reuse_chain reproduces the circuit exactly."""
        circuit = bv_circuit(5)
        result = ChainReuse().run(circuit)
        replayed = apply_reuse_chain(circuit, result.pairs)
        assert replayed.num_qubits == result.qubits
        assert replayed.data == result.circuit.data

    def test_plan_accounting_is_consistent(self):
        circuit = ghz(5, measure=True)
        result = ChainReuse().run(circuit)
        plan = result.plan
        assert plan.width == circuit.num_qubits - len(plan.pairs)
        assert plan.inserted_resets == len(plan.pairs)
        assert 0 <= plan.inserted_measures <= len(plan.pairs)
        assert sum(len(chain) for chain in plan.chains) == circuit.num_qubits

    def test_no_merge_possible_returns_input_unchanged(self):
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        result = ChainReuse().run(circuit)
        assert result.qubits == 2
        assert result.pairs == []

    def test_deterministic_across_runs(self):
        circuit = _mixed_ladder(8)
        first = ChainReuse().run(circuit)
        second = ChainReuse().run(circuit)
        assert first.pairs == second.pairs
        assert first.circuit.data == second.circuit.data

    def test_narrow_beam_still_sound_and_guarded(self):
        """Even a width-1 beam is never wider than greedy QS."""
        circuit = _mixed_ladder(8)
        result = ChainReuse(beam_width=1, materialize_top=1).run(circuit)
        greedy = QSCaQR(parallel=False).minimum_qubits(circuit)
        assert result.qubits <= greedy
        assert_equivalent(circuit, result.circuit)

    def test_stats_sink_is_shared(self):
        stats = Stats()
        engine = ChainReuse(stats=stats)
        engine.run(bv_circuit(4))
        assert stats.counters["windows"] == 4
        assert stats.counters["merges"] == 2
        assert stats.counters["plans_materialized"] >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": "fidelity"},
            {"reset_style": "magic"},
            {"beam_width": 0},
            {"register_budget": 0},
            {"materialize_top": 0},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ReuseError):
            ChainReuse(**kwargs)


class TestObjectives:
    def test_depth_objective_never_wider_and_no_deeper_at_same_width(self):
        circuit = _mixed_ladder(8)
        by_qubits = ChainReuse(objective="qubits").run(circuit)
        by_depth = ChainReuse(objective="depth").run(circuit)
        assert by_depth.qubits == by_qubits.qubits
        assert by_depth.depth <= by_qubits.depth

    def test_est_error_objective_prefers_terminal_measure_chains(self):
        """At equal width, est_error never inserts more dynamic ops."""
        circuit = _mixed_ladder(8)
        base = ChainReuse(objective="qubits").run(circuit)
        careful = ChainReuse(objective="est_error").run(circuit)
        assert careful.qubits == base.qubits
        assert careful.plan.mid_circuit_ops <= base.plan.mid_circuit_ops


class TestBudgetedMode:
    def test_reduce_to_stops_at_the_budget(self):
        circuit = bv_circuit(6)
        result = ChainReuse().reduce_to(circuit, 4)
        assert result.feasible
        assert result.qubits == 4  # stops merging once the budget fits
        assert_equivalent(circuit, result.circuit)

    def test_infeasible_budget_is_flagged_not_raised(self):
        stats = Stats()
        result = ChainReuse(stats=stats).reduce_to(bv_circuit(5), 1)
        assert not result.feasible
        assert result.qubits == 2
        assert stats.counters["budget_infeasible"] == 1

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ReuseError):
            ChainReuse().reduce_to(bv_circuit(4), 0)


class TestDualRegister:
    """The trapped-ion cost model (DeCross et al.): with routing free
    and measure/reset dominant, trade register width for fewer inserted
    mid-circuit dynamic operations."""

    def test_mixed_ladder_trades_width_for_fewer_mid_ops(self):
        circuit = _mixed_ladder(8)
        generic = ChainReuse().run(circuit)
        assert generic.qubits == 2
        assert generic.plan.mid_circuit_ops == 9
        dual = ChainReuse(
            dual_register=True, register_budget=generic.qubits + 2
        ).run(circuit)
        assert dual.feasible
        assert dual.qubits == 4
        assert dual.plan.mid_circuit_ops == 5
        assert dual.plan.inserted_measures < generic.plan.inserted_measures
        assert_equivalent(circuit, dual.circuit)

    def test_without_budget_defaults_to_the_matching_floor_budget(self):
        """With no explicit register size the floor becomes the budget:
        the search still minimises inserted dynamic ops among states
        that can reach it, so the result may sit above the floor but
        always below the generic plan's mid-circuit cost."""
        circuit = _mixed_ladder(8)
        generic = ChainReuse().run(circuit)
        dual = ChainReuse(dual_register=True).run(circuit)
        assert dual.feasible
        assert generic.floor <= dual.qubits <= circuit.num_qubits
        assert dual.plan.mid_circuit_ops <= generic.plan.mid_circuit_ops
        assert dual.qubits == 3 and dual.plan.mid_circuit_ops == 7

    def test_all_terminal_measures_make_the_models_agree(self):
        """When every window ends in a terminal measurement no merge
        inserts a measure, so dual-register collapses to width-first."""
        circuit = bv_circuit(5)
        generic = ChainReuse().run(circuit)
        dual = ChainReuse(
            dual_register=True, register_budget=generic.qubits
        ).run(circuit)
        assert dual.qubits == generic.qubits
        assert dual.plan.inserted_measures == 0

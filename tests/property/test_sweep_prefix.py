"""The sweep equivalences the mode-aware compile pipeline rests on.

``caqr_compile`` reads the ``qubit_budget`` point off one greedy sweep
instead of calling ``reduce_to``, and stops its benefit sweep at
:func:`~repro.core.tradeoff.benefit_floor` instead of sweeping to the
end.  Both shortcuts are sound only if:

* ``reduce_to(k)`` is the first sweep point at most ``k`` wide (same
  circuit, same pairs, same ``feasible`` flag) for the regular and the
  commuting engine;
* the early-stopped sweep is a prefix of the full sweep with the same
  ``assess_reuse_benefit(...).beneficial`` verdict, including when the
  circuit can never reach the saving threshold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QSCaQR
from repro.core.qs_commuting import QSCaQRCommuting
from repro.core.tradeoff import (
    assess_reuse_benefit,
    benefit_floor,
    budget_point,
    sweep_commuting,
    sweep_regular,
)
from repro.exceptions import ReuseError
from repro.workloads import bv_circuit
from tests.property.strategies import circuits, problem_graphs

# 0.99 is out of reach of every circuit here: the floor is >= 1 qubit of
# at most 10, so it exercises the "stuck before the floor" branch
MIN_SAVINGS = st.sampled_from([0.0, 0.2, 0.5, 0.75, 0.99])


def _first_fitting(sweep, limit):
    """What ``reduce_to(limit)`` should return, read off a full sweep."""
    for point in sweep:
        if point.qubits <= limit:
            return point, True
    return sweep[-1], False


def _assert_same_point(reduced, expected, feasible):
    assert reduced.circuit == expected.circuit
    assert reduced.pairs == expected.pairs
    assert reduced.qubits == expected.qubits
    assert reduced.feasible is feasible


class TestReduceToIsASweepPrefix:
    @given(
        circuits(min_qubits=2, max_qubits=6, max_gates=18, terminal_measures=True),
        st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_regular(self, circuit, limit):
        sweep = QSCaQR(parallel=False).sweep(circuit)
        reduced = QSCaQR(parallel=False).reduce_to(circuit, limit)
        _assert_same_point(reduced, *_first_fitting(sweep, limit))

    @given(problem_graphs(max_nodes=8), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_commuting(self, graph, limit):
        sweep = QSCaQRCommuting(graph).sweep()
        reduced = QSCaQRCommuting(graph).reduce_to(limit)
        _assert_same_point(reduced, *_first_fitting(sweep, limit))

    @given(
        circuits(min_qubits=2, max_qubits=6, max_gates=18, terminal_measures=True),
        st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_budget_point_matches_reduce_to(self, circuit, limit):
        points = sweep_regular(circuit, parallel=False)
        reduced = QSCaQR(parallel=False).reduce_to(circuit, limit)
        if reduced.feasible:
            assert budget_point(points, limit).circuit == reduced.circuit
        else:
            with pytest.raises(ReuseError, match=f"reached {reduced.qubits}"):
                budget_point(points, limit)


def _assert_same_verdict(full, early, min_saving):
    assert [p.qubits for p in early] == [p.qubits for p in full[: len(early)]]
    assert (
        assess_reuse_benefit(early, min_saving=min_saving).beneficial
        == assess_reuse_benefit(full, min_saving=min_saving).beneficial
    )


class TestEarlyStoppedBenefitSweep:
    @given(
        circuits(min_qubits=1, max_qubits=6, max_gates=18, terminal_measures=True),
        MIN_SAVINGS,
    )
    @settings(max_examples=30, deadline=None)
    def test_regular(self, circuit, min_saving):
        full = sweep_regular(circuit, parallel=False)
        early = sweep_regular(
            circuit,
            parallel=False,
            min_qubits=benefit_floor(circuit.num_qubits, min_saving),
        )
        _assert_same_verdict(full, early, min_saving)

    @given(problem_graphs(max_nodes=8), MIN_SAVINGS)
    @settings(max_examples=20, deadline=None)
    def test_commuting(self, graph, min_saving):
        full = sweep_commuting(graph, parallel=False)
        early = sweep_commuting(
            graph,
            parallel=False,
            min_qubits=benefit_floor(graph.number_of_nodes(), min_saving),
        )
        _assert_same_verdict(full, early, min_saving)

    def test_stops_once_the_answer_is_known(self):
        # bv10 reaches 2 qubits; a 20 % saving is already met at 8
        full = sweep_regular(bv_circuit(10), parallel=False)
        early = sweep_regular(
            bv_circuit(10), parallel=False, min_qubits=benefit_floor(10)
        )
        assert benefit_floor(10) == 8
        assert [p.qubits for p in early] == [10, 9, 8]
        _assert_same_verdict(full, early, 0.2)

    def test_unreachable_threshold_sweeps_to_the_end(self):
        full = sweep_regular(bv_circuit(6), parallel=False)
        early = sweep_regular(
            bv_circuit(6), parallel=False, min_qubits=benefit_floor(6, 0.99)
        )
        assert benefit_floor(6, 0.99) == 1
        assert [p.qubits for p in early] == [p.qubits for p in full]
        assert not assess_reuse_benefit(early, min_saving=0.99).beneficial

"""Tests for the QS-CaQR regular driver (paper Section 3.2.1)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.core import QSCaQR
from repro.exceptions import ReuseError
from repro.sim import run_counts
from repro.workloads import (
    bv_circuit,
    bv_expected_bitstring,
    four_mod5,
    rd32,
    system_9,
    xor5,
)


def marginal(counts, num_bits):
    """Project counts onto the first *num_bits* classical bits.

    Reuse of unmeasured qubits (e.g. BV's ancilla) appends garbage
    clbits; the application answer lives in the original bits.
    """
    out = {}
    for key, value in counts.items():
        prefix = key[:num_bits]
        out[prefix] = out.get(prefix, 0) + value
    return out


class TestBVHeadline:
    """Paper Section 1: n-qubit BV always compresses to exactly 2 qubits."""

    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_bv_floor_is_two(self, n):
        assert QSCaQR().minimum_qubits(bv_circuit(n)) == 2

    def test_bv5_saving_is_60_percent(self):
        """The abstract's 60% resource saving on BV (5 -> 2)."""
        result = QSCaQR().reduce_to(bv_circuit(5), 2)
        assert result.feasible
        saving = 1 - result.qubits / 5
        assert saving == pytest.approx(0.6)

    def test_reduced_bv_still_correct(self):
        result = QSCaQR().reduce_to(bv_circuit(6, secret=[1, 0, 1, 1, 0]), 2)
        counts = run_counts(result.circuit, shots=150, seed=3)
        assert marginal(counts, 5) == {bv_expected_bitstring(6, [1, 0, 1, 1, 0]): 150}


class TestReduceTo:
    def test_already_small_enough(self):
        circuit = bv_circuit(3)
        result = QSCaQR().reduce_to(circuit, 5)
        assert result.qubits == 3
        assert result.pairs == []

    def test_infeasible_reports_false(self):
        result = QSCaQR().reduce_to(bv_circuit(5), 1)
        assert not result.feasible
        assert result.qubits == 2  # got as far as possible

    def test_bad_limit_rejected(self):
        with pytest.raises(ReuseError):
            QSCaQR().reduce_to(bv_circuit(3), 0)

    def test_exact_intermediate_budget(self):
        result = QSCaQR().reduce_to(bv_circuit(6), 4)
        assert result.feasible
        assert result.qubits == 4
        assert len(result.pairs) == 2

    def test_bad_objective_rejected(self):
        with pytest.raises(ReuseError):
            QSCaQR(objective="spin")


class TestSweep:
    def test_sweep_covers_every_count(self):
        points = QSCaQR().sweep(bv_circuit(5))
        assert [p.qubits for p in points] == [5, 4, 3, 2]

    def test_depth_monotonically_nonincreasing_in_qubits(self):
        """Fewer qubits -> same or larger logical depth (paper Fig. 3/13)."""
        points = QSCaQR().sweep(bv_circuit(8))
        depths = [p.depth for p in points]
        assert all(b >= a for a, b in zip(depths, depths[1:]))

    def test_first_point_is_input(self):
        circuit = bv_circuit(4)
        points = QSCaQR().sweep(circuit)
        assert points[0].circuit is not circuit or points[0].qubits == 4
        assert points[0].pairs == []

    def test_semantics_preserved_at_every_point(self):
        secret = [1, 1, 0, 1]
        points = QSCaQR().sweep(bv_circuit(5, secret=secret))
        expected = bv_expected_bitstring(5, secret)
        for point in points:
            counts = run_counts(point.circuit, shots=100, seed=9)
            assert marginal(counts, 4) == {expected: 100}, (
                f"broken at {point.qubits} qubits"
            )


class TestRevlibBenchmarks:
    """The arithmetic benchmarks also shrink and stay correct."""

    @pytest.mark.parametrize("builder", [rd32, four_mod5, xor5, system_9])
    def test_reuse_preserves_deterministic_output(self, builder):
        circuit = builder()
        baseline = run_counts(circuit, shots=64, seed=11)
        expected = next(iter(baseline))
        points = QSCaQR().sweep(circuit)
        final = points[-1]
        counts = run_counts(final.circuit, shots=64, seed=12)
        assert marginal(counts, circuit.num_clbits) == {expected: 64}

    def test_xor5_saves_qubits(self):
        """XOR_5 is a BV-like star: large savings expected."""
        assert QSCaQR().minimum_qubits(xor5()) == 2


class TestDurationObjective:
    def test_duration_objective_runs(self):
        points = QSCaQR(objective="duration").sweep(bv_circuit(5))
        assert points[-1].qubits == 2
        durations = [p.duration_dt for p in points]
        assert all(d > 0 for d in durations)

    def test_builtin_reset_style_longer(self):
        cif = QSCaQR(reset_style="cif").reduce_to(bv_circuit(5), 2)
        builtin = QSCaQR(reset_style="builtin").reduce_to(bv_circuit(5), 2)
        assert builtin.duration_dt > cif.duration_dt


class TestLazyDuration:
    """Depth-objective sweeps must not pay for duration scheduling."""

    def _counting(self, monkeypatch):
        import repro.core.qs_caqr as mod

        calls = {"n": 0}
        real = mod.circuit_duration_dt

        def counted(circuit):
            calls["n"] += 1
            return real(circuit)

        monkeypatch.setattr(mod, "circuit_duration_dt", counted)
        return calls

    def test_depth_sweep_never_schedules(self, monkeypatch):
        calls = self._counting(monkeypatch)
        points = QSCaQR(objective="depth").sweep(bv_circuit(5))
        assert calls["n"] == 0
        # first access computes (and caches) it lazily
        value = points[-1].duration_dt
        assert calls["n"] == 1 and value > 0
        assert points[-1].duration_dt == value
        assert calls["n"] == 1

    def test_depth_reference_engine_never_schedules(self, monkeypatch):
        calls = self._counting(monkeypatch)
        from tests.oracles import ReferenceQSCaQR

        ReferenceQSCaQR(objective="depth").sweep(bv_circuit(5))
        assert calls["n"] == 0

    def test_duration_sweep_schedules_eagerly(self, monkeypatch):
        calls = self._counting(monkeypatch)
        points = QSCaQR(objective="duration").sweep(bv_circuit(5))
        assert calls["n"] == len(points)
        before = calls["n"]
        assert all(p.duration_dt > 0 for p in points)
        assert calls["n"] == before  # already cached

    def test_lazy_value_matches_eager(self):
        depth_points = QSCaQR(objective="depth").sweep(bv_circuit(5))
        duration_points = QSCaQR(objective="duration").sweep(bv_circuit(5))
        by_width = {p.qubits: p.duration_dt for p in duration_points}
        for point in depth_points:
            if point.qubits in by_width and point.pairs == []:
                assert point.duration_dt == by_width[point.qubits]


class TestEngineKnobs:
    def test_stats_populated_by_incremental_sweep(self):
        compiler = QSCaQR()
        compiler.sweep(bv_circuit(5))
        counters = compiler.stats.counters
        assert counters["steps"] == 3
        assert counters["evaluations"] > 0
        assert counters["mask_updates"] > 0
        assert compiler.stats.timers["score"] >= 0.0
        assert compiler.stats.timers["lookahead"] >= 0.0
        assert compiler.stats.timers["apply"] >= 0.0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ReuseError):
            QSCaQR(objective="fidelity")

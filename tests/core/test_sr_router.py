"""Tests for SR-CaQR's trial grid, hint handling, and route-stats wiring."""

import pytest

import repro.core.sr_caqr as sr_caqr_module
from repro.core import SRCaQR
from repro.exceptions import ReuseError, TranspilerError
from repro.hardware import ibm_mumbai
from repro.stats import Stats
from repro.workloads import bv_circuit, regular_benchmark
from tests.oracles import ReferenceSRCaQR


class TestTrialGrid:
    def test_trials_one_runs_exactly_one_trial(self):
        """Regression: ``max(trials - 1, 1)`` used to turn ``trials=1``
        into two hint seeds; the grid must honour the requested count."""
        router = SRCaQR(ibm_mumbai(), parallel=False)
        router.run(regular_benchmark("xor_5"), trials=1, qs_assist=False)
        assert router.stats.counters["sr_trials"] == 1

    @pytest.mark.parametrize("trials", [2, 3])
    def test_trial_count_honoured(self, trials):
        router = SRCaQR(ibm_mumbai(), parallel=False)
        router.run(regular_benchmark("xor_5"), trials=trials, qs_assist=False)
        assert router.stats.counters["sr_trials"] == trials

    def test_zero_trials_rejected(self):
        with pytest.raises(ReuseError):
            SRCaQR(ibm_mumbai()).run(bv_circuit(4), trials=0)

    def test_parallel_flag_reflected_in_stats(self, two_workers):
        circuit = regular_benchmark("xor_5")
        serial = SRCaQR(ibm_mumbai(), parallel=False)
        serial.run(circuit, trials=2, qs_assist=False)
        # layout hint trials also report into serial_trials, so only the
        # parallel counter separates the two modes cleanly
        assert serial.stats.counters.get("parallel_trials", 0) == 0
        assert serial.stats.counters["serial_trials"] >= 2
        fanned = SRCaQR(ibm_mumbai(), parallel=True)
        fanned.run(circuit, trials=2, qs_assist=False)
        assert fanned.stats.counters["parallel_trials"] == 2


class TestHintHandling:
    def test_expected_hint_failure_falls_back(self, monkeypatch):
        """A TranspilerError inside the hint-layout search must not abort
        the compilation — the router maps hint-free and counts it."""

        def _boom(*args, **kwargs):
            raise TranspilerError("hint search stalled")

        monkeypatch.setattr(sr_caqr_module, "sabre_layout", _boom)
        router = SRCaQR(ibm_mumbai(), parallel=False)
        result = router.run(bv_circuit(5), trials=2, qs_assist=False)
        assert result.circuit.num_qubits == ibm_mumbai().num_qubits
        assert router.stats.counters["hint_fallbacks"] >= 1

    def test_programming_error_propagates(self, monkeypatch):
        """Bugs must not be swallowed by the hint fallback."""

        def _bug(*args, **kwargs):
            raise ValueError("not an expected routing failure")

        monkeypatch.setattr(sr_caqr_module, "sabre_layout", _bug)
        router = SRCaQR(ibm_mumbai(), parallel=False)
        with pytest.raises(ValueError):
            router.run(bv_circuit(5), trials=2, qs_assist=False)


class TestRouteStatsSurface:
    def test_counters_populated(self):
        router = SRCaQR(ibm_mumbai(), parallel=False)
        result = router.run(bv_circuit(6), trials=2, qs_assist=False)
        counters = router.stats.counters
        assert counters["sr_trials"] == 2
        assert counters["reuses"] == result.reuse_count
        assert counters["distance_cache_builds"] == 1
        assert counters.get("slack_recomputes", 0) > 0
        assert "sr_run" in router.stats.timers

    @pytest.mark.parametrize("name", ["bv8", "multiply_13"])
    def test_slack_counters_count_every_round(self, name):
        """Every scheduling round either ranks the frontier afresh or
        reuses the cached ranking: the two counters sum to the round
        count, which the reference router (one slack pass per round)
        reports as its ``slack_recomputes``."""
        circuit = bv_circuit(8) if name == "bv8" else regular_benchmark(name)
        incremental = SRCaQR(ibm_mumbai(), parallel=False)
        incremental.run(circuit, trials=1, qs_assist=False)
        reference = ReferenceSRCaQR(ibm_mumbai(), parallel=False)
        reference.run(circuit, trials=1, qs_assist=False)
        counters = incremental.stats.counters
        avoided = counters["slack_recomputes_avoided"]
        rounds = reference.stats.counters["slack_recomputes"]
        assert counters["slack_recomputes"] + avoided == rounds
        # a SWAP round schedules nothing, so the round after it reuses
        # the ranking
        assert avoided >= counters["swaps_inserted"]

    def test_stats_merge_and_rates(self):
        left = Stats()
        left.count("slack_recomputes", 3)
        left.count("slack_recomputes_avoided", 1)
        left.add_time("route", 0.5)
        left.set_value("gauge", 5.0)
        right = Stats()
        right.count("slack_recomputes_avoided", 4)
        right.add_time("route", 0.25)
        right.set_value("gauge", 2.0)
        left.merge(right)
        assert left.counters["slack_recomputes_avoided"] == 5
        assert left.timers["route"] == pytest.approx(0.75)
        # a gauge present in both sinks takes the merged-in reading
        assert left.values["gauge"] == 2.0
        rate = left.rate("slack_recomputes_avoided", "slack_recomputes")
        assert rate == pytest.approx(5 / 8)
        assert Stats().rate("slack_recomputes_avoided", "slack_recomputes") == 0.0
        assert Stats().summary() == ""

    def test_summary_format(self):
        stats = Stats()
        stats.count("swaps_inserted", 2)
        stats.add_time("route", 0.125)
        assert stats.summary() == "swaps_inserted=2, route_s=0.125"

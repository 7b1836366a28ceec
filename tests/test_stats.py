"""Tests for the one stats sink every layer reports into."""

import ast
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.stats import Stats

STATS_MODULE = Path(__file__).resolve().parents[1] / "src" / "repro" / "stats.py"


class TestStats:
    def test_rate(self):
        stats = Stats()
        assert stats.rate("hits", "misses") == 0.0
        stats.count("hits", 3)
        stats.count("misses", 1)
        assert stats.rate("hits", "misses") == pytest.approx(0.75)
        assert stats.rate("misses", "hits") == pytest.approx(0.25)
        assert stats.rate("hits", "absent") == 1.0

    def test_merge(self):
        a = Stats()
        b = Stats()
        a.count("steps")
        a.add_time("score", 1.0)
        a.set_value("esp", 0.5)
        a.set_value("only_mine", 3.0)
        a.observe("request_latency", 0.002)
        b.count("steps", 2)
        b.add_time("score", 0.5)
        b.set_value("esp", 0.25)
        b.observe("request_latency", 0.002)
        b.observe("request_latency", 7.0)
        a.merge(b)
        assert a.counters["steps"] == 3
        assert a.timers["score"] == pytest.approx(1.5)
        # gauges are readings: the merged-in sink's value wins, no sum
        assert a.values == {"esp": 0.25, "only_mine": 3.0}
        hist = a.histograms["request_latency"]
        assert hist.count == 3
        assert hist.sum == pytest.approx(7.004)
        # the merged-in histogram is copied, not aliased
        assert b.histograms["request_latency"].count == 2

    def test_dict_round_trip(self):
        stats = Stats()
        stats.count("swaps_inserted", 2)
        stats.add_time("route", 0.125)
        stats.set_value("esp", 0.5)
        clone = Stats.from_dict(stats.to_dict())
        assert clone == stats

    def test_to_dict_always_writes_values(self):
        assert Stats().to_dict() == {"counters": {}, "timers": {}, "values": {}}

    def test_from_dict_accepts_payload_without_values(self):
        stats = Stats.from_dict({"counters": {"steps": 2}, "timers": {"score": 0.5}})
        assert stats.counters == {"steps": 2}
        assert stats.timers == {"score": 0.5}
        assert stats.values == {}

    def test_summary_orders_counters_gauges_timers(self):
        stats = Stats()
        stats.count("evaluations", 2)
        stats.set_value("esp", 0.5)
        stats.add_time("score", 0.25)
        assert stats.summary() == "evaluations=2, esp=0.5, score_s=0.250"

    def test_threads_lose_no_update(self):
        # a server bumps one sink from its event loop and its compile
        # threads; forced switches make an unlocked update lose counts
        stats = Stats()
        threads, rounds = 4, 40_000

        def work():
            for _ in range(rounds):
                stats.count("requests")
                stats.add_time("compile", 1.0)
                stats.observe("request_latency", 0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        total = threads * rounds
        assert stats.counters["requests"] == total
        assert stats.timers["compile"] == total
        assert stats.histograms["request_latency"].count == total

    def test_pickle_round_trip_gets_its_own_lock(self):
        stats = Stats()
        stats.count("steps", 2)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone._lock is not stats._lock
        clone.count("steps")
        assert clone.counters == {"steps": 3}
        assert stats.counters == {"steps": 2}


class TestLayering:
    def test_stats_imports_only_stdlib_and_exceptions(self):
        tree = ast.parse(STATS_MODULE.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in repro.stats"
                modules.add(node.module)
        assert modules, "no imports found: the guard is not reading the module"
        for module in modules:
            if module == "repro.exceptions":
                continue
            top = module.split(".")[0]
            assert top == "__future__" or top in sys.stdlib_module_names, (
                f"repro.stats imports {module}; it may use only the "
                "standard library and repro.exceptions"
            )

"""Tests for the evaluation engine's :class:`~repro.stats.Stats` sink."""

import pytest

from repro.stats import Stats


class TestReuseEvalStats:
    def _stats(self):
        return Stats()

    def test_counters_accumulate(self):
        stats = self._stats()
        stats.count("evaluations")
        stats.count("evaluations", 4)
        stats.count("steps", 2)
        assert stats.counters == {"evaluations": 5, "steps": 2}

    def test_timed_context_accumulates(self):
        stats = self._stats()
        with stats.timed("score"):
            pass
        with stats.timed("score"):
            pass
        assert stats.timers["score"] >= 0.0
        assert len(stats.timers) == 1

    def test_timed_records_on_exception(self):
        stats = self._stats()
        with pytest.raises(ValueError):
            with stats.timed("apply"):
                raise ValueError("boom")
        assert "apply" in stats.timers

    def test_cache_hit_rate(self):
        stats = self._stats()
        assert stats.rate("cache_hits", "evaluations") == 0.0
        stats.count("evaluations", 3)
        stats.count("cache_hits", 1)
        assert stats.rate("cache_hits", "evaluations") == pytest.approx(0.25)

    def test_summary_mentions_everything(self):
        stats = self._stats()
        stats.count("evaluations", 2)
        stats.add_time("score", 0.25)
        text = stats.summary()
        assert "evaluations=2" in text
        assert "score_s=0.250" in text

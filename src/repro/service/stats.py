"""Runtime counters, gauges, and wall-time buckets for the compile service.

:class:`ServiceStats` follows the :class:`repro.core.profile.ReuseEvalStats` /
:class:`repro.sim.stats.SimStats` / :class:`repro.transpiler.stats.RouteStats`
pattern: the cache tiers and the batch engine report into an optional sink,
benchmarks and ``python -m repro cache stats`` read it back.

Counter names the service uses:

* ``requests`` — :meth:`CompileService.compile` calls (batch members count
  individually);
* ``hits`` / ``misses`` — cache lookups served vs. compiled from scratch;
* ``memory_hits`` / ``disk_hits`` — which tier served each hit (a disk hit
  is promoted into the memory tier);
* ``stores`` — fresh reports written into the cache;
* ``evictions`` — memory-tier entries dropped by the LRU byte/entry caps;
* ``corrupt_entries`` — on-disk entries that failed to load (bad JSON,
  schema-version mismatch, truncated write) and were treated as misses;
* ``expired_entries`` — entries past the cache TTL, dropped on lookup;
* ``migrated_entries`` — legacy flat disk entries moved into their
  backend shard on first lookup;
* ``invalidated_entries`` / ``invalidations`` — entries removed by an
  explicit ``invalidate(fingerprint)`` call (CLI ``cache clear --key``
  or ``POST /v1/cache/invalidate``) and the number of such calls;
* ``dedup_folds`` — requests folded onto an identical one instead of
  compiling: duplicate members of one ``compile_batch`` call plus
  concurrent ``compile`` calls that joined an in-flight compilation;
* ``batch_calls`` / ``batch_requests`` / ``batch_unique`` — batch API
  invocations, total members, and distinct fingerprints among them;
* ``parallel_compiles`` / ``serial_compiles`` — batch misses fanned out to
  the process pool vs. compiled in-process.

Gauges (floats, ``values``): ``memory_bytes`` / ``memory_entries`` —
current memory-tier footprint; ``disk_bytes_written`` — cumulative bytes
persisted to the disk tier; ``shard_entries:<id>`` / ``shard_bytes:<id>``
— per-shard disk usage, refreshed by ``DiskCache.refresh_shard_gauges``
(the ``/v1/stats`` endpoint and ``repro cache stats`` trigger a refresh).

The HTTP app base (:mod:`repro.service.net.app`, under both the server
and the gateway) adds ``http_connections``, ``http_requests``,
``http_errors`` (one per reply with status >= 400), ``http_rejected``
(``413`` bodies, ``503`` mid-drain; on the server also ``429``),
``http_unauthorized``, ``drains`` / ``drain_timeouts``, and
per-endpoint ``http:<path>`` counters; the server adds
``http_timeouts``.

Time buckets (seconds): ``fingerprint`` (cache-key derivation), ``lookup``
(tier probes), ``compile`` (cold ``caqr_compile`` runs), ``serialize`` /
``deserialize`` (report codec), ``store`` (cache writes).

The persistent worker pool (:mod:`repro.service.workers`) adds
``worker_pool_spawns`` / ``worker_respawns`` / ``worker_tasks`` /
``worker_records_shipped`` / ``worker_record_misses`` counters, and the
HTTP app base adds latency *histograms* (``request_latency`` plus
per-endpoint ``request_latency:<path>``) — fixed-bucket
:class:`~repro.service.metrics.LatencyHistogram` objects fed through
:meth:`ServiceStats.observe` and exported by ``GET /v1/metrics``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.service.metrics import LatencyHistogram

__all__ = ["ServiceStats"]


@dataclass
class ServiceStats:
    """Counter/gauge/timer/histogram sink for one compile service (or many, merged)."""

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Add *seconds* to wall-time bucket *name*."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def add_value(self, name: str, amount: float) -> None:
        """Accumulate *amount* into gauge *name*."""
        self.values[name] = self.values.get(name, 0.0) + amount

    def set_value(self, name: str, value: float) -> None:
        """Overwrite gauge *name*."""
        self.values[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record *seconds* into latency histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        hist.observe(seconds)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager timing its block into bucket *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either cache tier."""
        hits = self.counters.get("hits", 0)
        total = hits + self.counters.get("misses", 0)
        return hits / total if total else 0.0

    @property
    def dedup_rate(self) -> float:
        """Fraction of requests folded onto an identical in-flight one."""
        folds = self.counters.get("dedup_folds", 0)
        total = self.counters.get("requests", 0)
        return folds / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot (the ``/v1/stats`` endpoint payload)."""
        payload: Dict[str, object] = {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "values": dict(self.values),
            "hit_rate": self.hit_rate,
            "dedup_rate": self.dedup_rate,
        }
        if self.histograms:
            payload["histograms"] = {
                name: hist.to_dict() for name, hist in self.histograms.items()
            }
        return payload

    def merge(self, other: "ServiceStats") -> None:
        """Fold *other*'s counters, gauges, timers, and histograms in."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.timers.items():
            self.add_time(name, value)
        for name, value in other.values.items():
            self.add_value(name, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = LatencyHistogram(hist.buckets)
            mine.merge(hist)

    def reset(self) -> None:
        """Zero all counters, gauges, timers, and histograms."""
        self.counters.clear()
        self.timers.clear()
        self.values.clear()
        self.histograms.clear()

    def summary(self) -> str:
        """One-line report for benchmark and CLI output."""
        parts = [f"{name}={self.counters[name]}" for name in sorted(self.counters)]
        parts.extend(f"{name}={self.values[name]:g}" for name in sorted(self.values))
        parts.extend(
            f"{name}_s={self.timers[name]:.3f}" for name in sorted(self.timers)
        )
        return ", ".join(parts)

"""One counter/timer/gauge/histogram sink for every layer.

Engines report into an optional :class:`Stats`; benchmarks, the compile
report, ``GET /v1/stats`` and ``GET /v1/metrics`` read it back.  The
module imports only the standard library and :mod:`repro.exceptions`,
so the simulator, transpiler, core and service layers can all use it.

A sink holds four kinds of series:

* ``counters`` — monotonic integer totals (:meth:`Stats.count`);
* ``timers`` — cumulative wall-clock seconds (:meth:`Stats.add_time`,
  :meth:`Stats.timed`);
* ``values`` — gauges, point readings (:meth:`Stats.set_value`);
* ``histograms`` — fixed-bucket :class:`LatencyHistogram` objects
  (:meth:`Stats.observe`).

:meth:`Stats.merge` adds counters and timers, lets each gauge take the
merged-in sink's value (a reading, never a running sum), and adds
histograms bucket by bucket.

Domains are not types.  A :class:`~repro.compile_api.CompileReport`
carries one sink per domain (``eval_stats``, ``chain_stats``,
``route_stats``, ``sim_stats``), and ``GET /v1/metrics`` exports each
under its own prefix (``caqr_reuse_eval_``, ``caqr_chain_``,
``caqr_route_``, ``caqr_sim_``; the service's own sink is ``caqr_``, the
gateway's ``caqr_gateway_``).  The names below are an interface:
perfbench and the lane golden fixture read them.

**Evaluation engine** (``eval_stats``; :class:`repro.core.qs_caqr.QSCaQR`,
:mod:`repro.core.session`): ``evaluations`` (candidate costs computed,
one :func:`~repro.core.evaluate.batch_pair_costs` pass per greedy step),
``lookahead_evaluations`` (candidates given the reuse-potential
lookahead), ``serial_batches`` / ``parallel_batches`` (lookahead
batches run in-process vs. on the session's process pool, one per
greedy step; candidate scoring never pools), ``mask_updates``
(incremental descendants-bitset patches),
``steps`` (greedy reduction steps).  Timers: ``score``, ``lookahead``,
``apply``.

**Chain engine** (``chain_stats``; :mod:`repro.core.chains`):
``windows``, ``mid_circuit_windows``, ``states_expanded``,
``states_dropped``, ``greedy_fallback``, ``plans_materialized``,
``merges``, ``inserted_measures``, ``inserted_resets``,
``budget_infeasible``.  Timers: ``analyze``, ``search``,
``materialize``.

**Routing** (``route_stats``; :mod:`repro.transpiler.sabre`,
:mod:`repro.core.sr_caqr`): ``route_calls``, ``layout_trials`` (SABRE
bidirectional trials), ``sr_trials`` (SR-CaQR candidate x hint-seed
cells), ``serial_trials`` / ``parallel_trials``,
``swap_candidates_scored``, ``swaps_inserted``, ``slack_recomputes`` /
``slack_recomputes_avoided`` (frontier ranked afresh vs. served from the
cached ranking; together, one per scheduling round),
``distance_cache_builds`` / ``distance_cache_hits``, ``hint_fallbacks``
(hint-layout searches abandoned on a
:class:`~repro.exceptions.TranspilerError`), ``reuses``.  Timer:
``sr_run``.

**Simulation** (``sim_stats``; :mod:`repro.sim`): ``branches_expanded``,
``suffix_cache_hits`` / ``suffix_cache_misses``, ``cap_fallback_shots``,
``tree_shots`` / ``batch_shots`` / ``reference_shots`` /
``terminal_shots``, ``fused_gates``, ``batch_shards``,
``parallel_batches`` / ``serial_batches``; analytic ESP adds
``esp_two_qubit_evals`` / ``esp_readout_evals`` /
``esp_single_qubit_evals`` / ``esp_decoherence_qubits``.  Gauges:
``dropped_mass``, ``tree_nodes``, ``batch_amplitude_bytes``, ``esp``.
Timers: ``prefix``, ``expand``, ``walk``, ``compile``, ``execute``,
``esp``.

**Compile service** (:mod:`repro.service`): ``requests``, ``hits`` /
``misses``, ``memory_hits`` / ``disk_hits``, ``stores``, ``evictions`` /
``disk_evictions``, ``corrupt_entries``, ``expired_entries``,
``invalidated_entries`` / ``invalidations``,
``dedup_folds``, ``batch_calls`` / ``batch_requests`` /
``batch_unique``, ``parallel_compiles`` / ``serial_compiles``,
``disk_bytes_written``.  Gauges: ``memory_bytes``, ``memory_entries``,
``shard_entries:<id>``, ``shard_bytes:<id>``.  Timers: ``fingerprint``,
``lookup``, ``compile``, ``serialize``, ``deserialize``, ``store``.
The worker pool (:class:`repro.parallel.WorkerPool`) adds
``worker_pool_spawns``, ``worker_respawns``, ``worker_tasks``; the
portfolio adds ``portfolio_compiles``, ``portfolio_wins:<lane>``,
``portfolio_errors:<lane>`` and the ``portfolio_race`` /
``portfolio_strategy:<lane>`` timers.

**HTTP** (:mod:`repro.service.net`): ``http_connections``,
``http_requests``, ``http:<path>``, ``http_errors``,
``http_internal_errors``, ``http_rejected``,
``http_unauthorized``, ``http_timeouts``, ``drains`` /
``drain_timeouts``, the server's ``envelope_*`` and ``cache_*``
counters, the gateway's ``key_cache_*``, ``backend_*:<url>``,
``fleet_*:<url>``, ``peer_fills``, ``ring_moves`` and ``no_backend``;
histograms ``request_latency`` and ``request_latency:<path>``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.exceptions import ServiceError

__all__ = ["DEFAULT_BUCKETS", "LatencyHistogram", "Stats"]

#: Upper bucket bounds in seconds: 1ms .. 60s, log-spaced, matching the
#: range a compile request can plausibly take (warm hit to exact-tier race).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram of seconds (Prometheus-classic shape).

    ``counts[i]`` holds observations with ``value <= buckets[i]`` that
    did not fit an earlier bucket; ``counts[-1]`` is the ``+Inf``
    overflow bucket.  ``cumulative()`` produces the monotone
    less-or-equal totals the text format wants.  Fixed buckets keep
    ``observe`` O(log B) and make merging a plain element-wise add.
    """

    __slots__ = ("buckets", "counts", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ServiceError(
                "histogram buckets must be a non-empty strictly "
                f"increasing sequence, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def observe(self, seconds: float) -> None:
        """Record one observation of *seconds*."""
        self.counts[bisect_left(self.buckets, float(seconds))] += 1
        self.sum += float(seconds)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count_le)`` pairs; the last bound is ``inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the *q* quantile (0..1)."""
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            if running >= rank:
                return bound
        return self.buckets[-1]

    def merge(self, other: "LatencyHistogram") -> None:
        """Element-wise add *other* into this histogram (same buckets)."""
        if other.buckets != self.buckets:
            raise ServiceError(
                "cannot merge histograms with different bucket bounds"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot (``/v1/stats`` payload fragment)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "LatencyHistogram":
        hist = cls(payload["buckets"])  # type: ignore[arg-type]
        counts = list(payload["counts"])  # type: ignore[call-overload]
        if len(counts) != len(hist.counts):
            raise ServiceError("histogram snapshot counts/buckets mismatch")
        hist.counts = [int(c) for c in counts]
        hist.sum = float(payload["sum"])  # type: ignore[arg-type]
        return hist


@dataclass
class Stats:
    """Counter/timer/gauge/histogram sink for one run (or many, merged)."""

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

    def rate(self, part: str, rest: str) -> float:
        """``part / (part + rest)`` over two counters (0.0 when both are 0),
        e.g. ``rate("hits", "misses")``."""
        hits = self.counters.get(part, 0)
        total = hits + self.counters.get(rest, 0)
        return hits / total if total else 0.0

    def merge(self, other: "Stats") -> None:
        """Fold *other* in: counters, timers and histograms add; gauges
        take *other*'s value."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.timers.items():
            self.add_time(name, value)
        self.values.update(other.values)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = LatencyHistogram(hist.buckets)
            mine.merge(hist)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot; ``histograms`` only when non-empty."""
        payload: Dict[str, Any] = {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "values": dict(self.values),
        }
        if self.histograms:
            payload["histograms"] = {
                name: hist.to_dict() for name, hist in self.histograms.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Stats":
        """Inverse of :meth:`to_dict` for the report sinks, which carry
        no histograms.  A payload without ``values`` (an older
        eval/chain record) loads."""
        return cls(
            counters={k: int(v) for k, v in payload["counters"].items()},
            timers={k: float(v) for k, v in payload["timers"].items()},
            values={k: float(v) for k, v in payload.get("values", {}).items()},
        )

    def summary(self) -> str:
        """One-line report for benchmark and CLI output."""
        parts = [f"{name}={self.counters[name]}" for name in sorted(self.counters)]
        parts.extend(f"{name}={self.values[name]:g}" for name in sorted(self.values))
        parts.extend(
            f"{name}_s={self.timers[name]:.3f}" for name in sorted(self.timers)
        )
        return ", ".join(parts)

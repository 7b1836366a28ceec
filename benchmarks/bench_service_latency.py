"""Compile-service hot-path latency: persistent pool and envelope cache.

The two perf claims of the zero-copy hot path, each measured and gated:

* **warm-batch re-dispatch** — the same 3-member batch dispatched
  repeatedly (cache cleared between rounds, so every round recompiles)
  through a service whose batch runs on a fresh ``ProcessPoolExecutor``
  per round with the full request pickled into every task (the baseline
  arm, defined here) vs. the real service's persistent
  :class:`~repro.service.WorkerPool` (long-lived pool, request records
  shipped once, then fingerprint-only tasks).  Both arms run the same
  ``compile_batch`` path; only the pool differs.  Rounds are primed past
  the record-shipping window first, so the timed rounds measure the
  steady state.  Gate: baseline median >= ``MIN_SPEEDUP`` x persistent
  median;
* **warm-hit HTTP latency** — repeated ``/v1/compile`` for one warm
  fingerprint against a server with the encoded-envelope cache on vs.
  off.  The envelope path skips ``report_to_dict`` + JSON per hit; the
  gate is soft (within ``ENVELOPE_SLACK`` of the non-envelope median and
  at least one counted ``envelope_hits``) because small-circuit
  serialization is already cheap.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_service_latency.py``.
"""

import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import emit, once

from repro.analysis import format_table
from repro.service import (
    CompileRequest,
    CompileService,
    RemoteCompileService,
    start_server_thread,
)
from repro.service.serialization import dumps_entry
from repro.service.service import _cold_compile
from repro.workloads import bv_circuit

#: Hard gate: steady-state persistent re-dispatch must beat the
#: spawn-a-pool-per-call path by at least this factor.
MIN_SPEEDUP = 2.0

#: Soft gate: envelope-on warm hits may not be slower than envelope-off
#: by more than this factor (they should be faster; the bar caps noise).
ENVELOPE_SLACK = 1.25

BATCH_WIDTHS = (4, 5, 6)
PRIME_ROUNDS = 3  # > records-shipped window (max_workers=2) for persistent
TIMED_ROUNDS = 7
WARM_HITS = 150


def _compile_entry(args):
    """Baseline-arm task: cold-compile one pickled request into its entry."""
    key, request = args
    return dumps_entry(key, _cold_compile(request, allow_parallel=False))


class _PoolPerRound:
    """``WorkerPool`` stand-in: a fresh process pool per dispatch, the full
    request pickled into every task."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def run(self, tasks):
        payloads = [(key, request) for _, key, request, _ in tasks]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(_compile_entry, payloads))


class _PoolPerRoundService(CompileService):
    """The baseline arm: ``compile_batch`` on a pool spawned per round."""

    def worker_pool(self):
        return _PoolPerRound(self.max_workers)


def _median_redispatch(service):
    requests = [CompileRequest(target=bv_circuit(n)) for n in BATCH_WIDTHS]
    for _ in range(PRIME_ROUNDS):
        service.cache.clear()
        service.compile_batch(requests, parallel=True, max_workers=2)
    samples = []
    for _ in range(TIMED_ROUNDS):
        service.cache.clear()
        start = time.perf_counter()
        service.compile_batch(requests, parallel=True, max_workers=2)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_persistent_pool_redispatch_speedup(benchmark):
    def run():
        per_round = _PoolPerRoundService(max_workers=2)
        persistent = CompileService(max_workers=2)
        try:
            per_round_s = _median_redispatch(per_round)
            persistent_s = _median_redispatch(persistent)
            spawns = persistent.stats.counters["worker_pool_spawns"]
            shipped = persistent.stats.counters["worker_records_shipped"]
            tasks = persistent.stats.counters["worker_tasks"]
        finally:
            per_round.close()
            persistent.close()
        return per_round_s, persistent_s, spawns, shipped, tasks

    per_round_s, persistent_s, spawns, shipped, tasks = once(benchmark, run)
    speedup = per_round_s / persistent_s

    rows = [
        ["pool per round", f"{per_round_s * 1000:.1f}", "1.00x"],
        [
            "persistent (zero-copy)",
            f"{persistent_s * 1000:.1f}",
            f"{speedup:.2f}x",
        ],
    ]
    text = format_table(
        ["mode", "median re-dispatch (ms)", "speedup"], rows
    ) + (
        f"\n{PRIME_ROUNDS} prime + {TIMED_ROUNDS} timed rounds of a "
        f"{len(BATCH_WIDTHS)}-member batch, max_workers=2\n"
        f"persistent pool spawns={spawns}, records shipped={shipped}, "
        f"tasks={tasks}"
    )
    emit("bench_service_latency_pool", text)

    assert spawns == 1, "the persistent pool must be spawned exactly once"
    assert speedup >= MIN_SPEEDUP, (
        f"persistent re-dispatch only {speedup:.2f}x faster than a pool per "
        f"round (gate: {MIN_SPEEDUP}x; per round {per_round_s * 1000:.1f}ms vs "
        f"persistent {persistent_s * 1000:.1f}ms)"
    )


def _warm_hit_latencies(handle, request):
    client = RemoteCompileService(handle.url, timeout=120)
    try:
        client.compile_classified(request)  # miss
        client.compile_classified(request)  # genuine hit (stores envelope)
        samples = []
        for _ in range(WARM_HITS):
            start = time.perf_counter()
            client.compile_classified(request)
            samples.append(time.perf_counter() - start)
    finally:
        client.close()
    samples.sort()
    return samples


def test_envelope_cache_warm_hit_latency(benchmark):
    request = CompileRequest(target=bv_circuit(12))

    def run():
        with_handle = start_server_thread(service=CompileService())
        try:
            with_samples = _warm_hit_latencies(with_handle, request)
            envelope_hits = with_handle.server.stats.counters.get(
                "envelope_hits", 0
            )
        finally:
            with_handle.stop()
        without_handle = start_server_thread(
            service=CompileService(), envelope_cache_entries=0
        )
        try:
            without_samples = _warm_hit_latencies(without_handle, request)
        finally:
            without_handle.stop()
        return with_samples, without_samples, envelope_hits

    with_samples, without_samples, envelope_hits = once(benchmark, run)
    with_median = statistics.median(with_samples)
    without_median = statistics.median(without_samples)

    def p99(samples):
        return samples[min(len(samples) - 1, int(0.99 * len(samples)))]

    rows = [
        [
            "envelope off",
            f"{without_median * 1000:.2f}",
            f"{p99(without_samples) * 1000:.2f}",
        ],
        [
            "envelope on",
            f"{with_median * 1000:.2f}",
            f"{p99(with_samples) * 1000:.2f}",
        ],
    ]
    text = format_table(["warm-hit path", "p50 (ms)", "p99 (ms)"], rows) + (
        f"\n{WARM_HITS} warm hits of bv_{request.target.num_qubits}; "
        f"envelope_hits counted: {envelope_hits}"
    )
    emit("bench_service_latency_envelope", text)

    assert envelope_hits >= WARM_HITS, "warm hits must ride the envelope cache"
    assert with_median <= without_median * ENVELOPE_SLACK, (
        f"envelope-on warm hits regressed: {with_median * 1000:.2f}ms vs "
        f"{without_median * 1000:.2f}ms off"
    )

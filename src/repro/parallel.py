"""One process-pool layer: pool width, the fan-out rule, ordered maps, nesting.

Every process pool of the compile passes (SABRE layout trials, the SR
trial grid, the QS lookahead, simulator shards) comes from here, and
every engine that fans out takes one ``parallel`` argument with one
meaning:

* **fan-out** — :func:`fans_out`: ``parallel=False`` never pools,
  ``True`` forces the pool, ``None`` (every engine's default) pools
  given more than one worker, enough items (two per worker when
  chunked) and a workload at the engine's threshold.  Each threshold is
  one module constant of the engine's module, not an argument:

  - SABRE layout trials: routed two-qubit gates × trials at
    ``repro.transpiler.sabre.LAYOUT_PARALLEL_THRESHOLD``;
  - the SR trial grid: grid cells × two-qubit gates at
    ``repro.core.sr_caqr.SR_GRID_PARALLEL_THRESHOLD``;
  - QS lookahead potentials:
    ``repro.core.session.POTENTIAL_WORKLOAD_THRESHOLD``;
  - simulator shards: ``repro.sim.batch.DEFAULT_PARALLEL_THRESHOLD``.

  The two per-call pools (layout trials, SR grid) were measured against
  their start-up cost (the break-even table in ``docs/ROUTER.md``), the
  QS lookahead against the serial sweep (``docs/INCREMENTAL_ENGINE.md``);
* **width** — :func:`default_workers`, the CPUs the calling thread may
  run on (its affinity mask; ``os.cpu_count()`` where the platform has
  no affinity call), capped at 8.  It is read when an engine is built
  or decides to fan out, never at import, and it is not an engine
  argument.  A fork inherits the forking thread's mask, so a caller
  pinned to one core runs serial instead of forking workers onto that
  core;
* **ordered maps** — :func:`pooled_map` (a pool started for one call)
  and :meth:`WorkerPool.map` (a pool kept across calls, by a service or
  by the QS lookahead's :class:`~repro.core.session.ReuseSession`) run
  one task per payload and return results in input order, so pooled
  equals serial.  A chunked caller passes :func:`chunks` as payloads;
* **nesting** — a process started by one of the package's pools runs
  every fan-out serial: the pools' ``initializer``
  (:func:`mark_pool_worker`) sets a flag :func:`fans_out` reads.
  Processes started any other way are unaffected.

This is the only module that builds a ``ProcessPoolExecutor``.  It
imports only the standard library and :mod:`repro.exceptions`, so every
layer can use it.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from threading import Lock
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import ServiceError

__all__ = [
    "default_workers", "mark_pool_worker", "new_pool",
    "fans_out", "chunks", "pooled_map", "WorkerPool",
]

#: Broken-pool respawns one :meth:`WorkerPool.map` call survives.
MAX_RESPAWNS = 3

_pool_worker = False


def default_workers() -> int:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(usable, 8)


def mark_pool_worker() -> None:
    """Pool ``initializer``: fan-outs in this process run serial."""
    global _pool_worker
    _pool_worker = True


def new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=mark_pool_worker)


def fans_out(
    parallel: Optional[bool],
    items: int,
    workers: int,
    *,
    chunked: bool = False,
    workload: int = 0,
    threshold: int = 0,
) -> bool:
    """Whether a map of *items* goes to a pool (see the module docstring)."""
    if parallel is False or items < 2 or _pool_worker:
        return False
    if parallel:
        return True
    floor = 2 * workers if chunked else 2
    return workers > 1 and items >= floor and workload >= threshold


def chunks(items: Sequence[Any], parts: int) -> List[Sequence[Any]]:
    """*items* as at most *parts* consecutive ceil-div chunks."""
    size = max(1, -(-len(items) // max(1, parts)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def pooled_map(fn: Callable, payloads: Sequence[Any], workers: int) -> List[Any]:
    """*fn* over *payloads* on a pool started for this call."""
    with new_pool(min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


def _submit(pool: ProcessPoolExecutor, fn: Callable, payload: Any) -> Future:
    try:
        return pool.submit(fn, payload)
    except BrokenProcessPool as exc:  # another call's worker broke it
        future: Future = Future()
        future.set_exception(exc)
        return future


class WorkerPool:
    """A pool kept across calls (thread-safe): a service's, or one QS
    sweep's lookahead pool.

    The pool starts on the first :meth:`map` and lives until
    :meth:`shutdown`, which does not wait for its workers, so a server
    drain never blocks on them; the next :meth:`map` starts a fresh one.
    *stats* is an optional :class:`~repro.stats.Stats` sink for
    ``worker_pool_spawns``, ``worker_respawns`` and ``worker_tasks``.
    """

    def __init__(self, max_workers: int, stats=None):
        self.max_workers = max(1, int(max_workers))
        self.stats = stats
        self._lock = Lock()
        self._pool: Optional[ProcessPoolExecutor] = None

    def _count(self, name: str, amount: int = 1) -> None:
        if self.stats is not None:
            self.stats.count(name, amount)

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is not pool:
                return  # already discarded, or another call respawned it
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the pool (idempotent; the next :meth:`map` respawns it)."""
        pool = self._pool
        if pool is not None:
            self._discard(pool)

    def map(self, fn: Callable, payloads: Sequence[Any]) -> List[Any]:
        """*fn* over *payloads*, one task each, results in input order.

        A worker death breaks the pool: a fresh pool reruns the
        interrupted payloads, up to :data:`MAX_RESPAWNS` times per call.
        The first task error propagates, as from ``Executor.map``.
        """
        results: List[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        respawns = 0
        while pending:
            with self._lock:
                if self._pool is None:
                    self._pool = new_pool(self.max_workers)
                    self._count("worker_pool_spawns")
                pool = self._pool
                futures = [_submit(pool, fn, payloads[i]) for i in pending]
            self._count("worker_tasks", len(pending))
            broken: List[int] = []
            failure: Optional[BaseException] = None
            for i, future in zip(pending, futures):
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    broken.append(i)
                except BaseException as exc:  # a task error
                    failure = failure or exc
            if broken:
                self._count("worker_respawns")
                self._discard(pool)
                respawns += 1
                if respawns > MAX_RESPAWNS:
                    raise ServiceError(
                        f"worker pool died {respawns} times during one map"
                    )
            if failure is not None:
                raise failure
            pending = broken
        return results

"""Persistent compile worker pool with fingerprint-keyed request records.

The batch engine and the portfolio race run their process-pool work on a
:class:`WorkerPool` instead of spawning a fresh ``ProcessPoolExecutor``
per call and pickling the full circuit into every task:

* **Persistent** — one pool per :class:`~repro.service.service.CompileService`
  (or :class:`~repro.service.portfolio.PortfolioCompileService`), spawned
  lazily on first use and reused across calls.  A dead worker breaks the
  pool exactly once: :meth:`WorkerPool.run` detects the broken pool,
  respawns it (``worker_respawns``), and resubmits the interrupted tasks.
* **Zero-copy warm lanes** — tasks carry ``(kind, fingerprint, record,
  extra)`` where *record* is a canonical encoding of the request (the
  wire-protocol record when expressible, the request object otherwise)
  shipped at most once per worker.  Workers cache decoded requests by
  fingerprint, so repeated batch dispatches and the N raced portfolio
  lanes of one request deserialize it once instead of N times.  A worker
  that has never seen a fingerprint and got no record answers
  ``("need_record", fp)`` and the parent resubmits with the record
  attached (``worker_record_misses``).

Task kinds: ``"entry"`` (cold-compile, return the serialized cache
entry), ``"strategy"`` (run one portfolio lane, return its
``StrategyOutcome``), ``"ping"`` (health check), ``"crash"`` (kill the
worker — the respawn drill used by tests).

The differential tests pin serial == pooled bit-identical.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from threading import Lock
from typing import Any, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError
from repro.stats import Stats

__all__ = ["WorkerPool"]

#: A worker task: ``(kind, fingerprint, request-or-record, extra)``.
WorkerTask = Tuple[str, str, Any, Any]


# -- request records -----------------------------------------------------------


def _encode_record(request) -> Tuple[str, Any]:
    """Canonical one-time-shipped form of a :class:`CompileRequest`.

    Prefers the schema-versioned wire record (a plain JSON-compatible
    dict, cheap to pickle and identical to what the HTTP layer ships);
    targets the wire codec cannot express (it raises ``WireError``, e.g.
    for graphs with non-integer nodes) fall back to the request object
    itself.  Any other error is a bug and propagates.
    """
    from repro.service.net.wire import WireError, request_to_wire

    try:
        return "wire", request_to_wire(request)
    except WireError:
        return "object", request


def _decode_record(record: Tuple[str, Any]):
    kind, payload = record
    if kind == "wire":
        from repro.service.net.wire import request_from_wire

        return request_from_wire(payload)
    return payload


# -- worker side ---------------------------------------------------------------


@dataclass
class _CachedRequest:
    request: Any
    view: Any = None
    view_known: bool = False


#: Per-worker decoded-request cache (fingerprint -> request + its
#: commuting view), LRU-capped so long-lived workers stay bounded.
_DECODED_CAP = 128
_decoded: "OrderedDict[str, _CachedRequest]" = OrderedDict()


def _reset_worker_state() -> None:
    """Drop the decoded-request cache (tests drive ``_worker_task`` in-process)."""
    _decoded.clear()


def _worker_task(task: WorkerTask) -> Tuple[str, Any]:
    """Run one pool task; returns ``(status, payload)``.

    ``("need_record", fp)`` asks the parent to resubmit with the request
    record attached.  Compile errors propagate as exceptions.
    """
    kind, fingerprint, record, extra = task
    if kind == "ping":
        return "ok", os.getpid()
    if kind == "crash":
        # the respawn drill: die hard enough to break the pool
        os._exit(17)
    cached = _decoded.get(fingerprint)
    if cached is None:
        if record is None:
            return "need_record", fingerprint
        cached = _CachedRequest(request=_decode_record(record))
        _decoded[fingerprint] = cached
        while len(_decoded) > _DECODED_CAP:
            _decoded.popitem(last=False)
    else:
        _decoded.move_to_end(fingerprint)
    if kind == "entry":
        from repro.service.serialization import dumps_entry
        from repro.service.service import _cold_compile

        report = _cold_compile(cached.request, allow_parallel=False)
        return "ok", dumps_entry(fingerprint, report)
    if kind == "strategy":
        from repro.compile_api import commuting_view
        from repro.service.portfolio import _run_strategy_worker

        if not cached.view_known:
            request = cached.request
            cached.view = commuting_view(request.target, request.auto_commuting)
            cached.view_known = True
        return "ok", _run_strategy_worker((extra, cached.request, cached.view))
    raise ServiceError(f"unknown worker task kind {kind!r}")


# -- parent side ---------------------------------------------------------------


class WorkerPool:
    """A long-lived, health-checked process pool (thread-safe).

    Args:
        max_workers: pool width (fixed at construction).
        stats: optional shared :class:`Stats` sink — counts
            ``worker_pool_spawns`` / ``worker_respawns`` /
            ``worker_tasks`` / ``worker_records_shipped`` /
            ``worker_record_misses``.
        record_cache_entries: parent-side LRU cap on encoded request
            records kept for re-shipping.
        max_respawns: broken-pool respawns tolerated within one
            :meth:`run` call before giving up with :class:`ServiceError`.
    """

    def __init__(
        self,
        max_workers: int,
        stats: Optional[Stats] = None,
        record_cache_entries: int = 256,
        max_respawns: int = 3,
    ):
        self.max_workers = max(1, int(max_workers))
        self.stats = stats if stats is not None else Stats()
        self.record_cache_entries = max(1, int(record_cache_entries))
        self.max_respawns = max(0, int(max_respawns))
        self._lock = Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        # how many times each fingerprint's record has shipped into the
        # *current* pool generation — reset on respawn so fresh workers
        # get the record again without a need_record round-trip
        self._shipped: dict = {}
        self._records: "OrderedDict[str, Tuple[str, Any]]" = OrderedDict()

    @property
    def alive(self) -> bool:
        """Whether a pool is currently spawned (it spawns lazily)."""
        return self._pool is not None

    # -- pool lifecycle --------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # caller holds self._lock
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._shipped = {}
            self.stats.count("worker_pool_spawns")
        return self._pool

    def _discard_pool(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def shutdown(self) -> None:
        """Tear the pool down and drop all cached records."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            self._records.clear()
            self._shipped = {}

    def ping(self, timeout: float = 60.0) -> bool:
        """Round-trip a health check; respawn-on-next-use if it fails."""
        try:
            with self._lock:
                future = self._ensure_pool().submit(
                    _worker_task, ("ping", "", None, None)
                )
            status, _ = future.result(timeout=timeout)
            return status == "ok"
        except BrokenProcessPool:
            self.stats.count("worker_respawns")
            self._discard_pool()
            return False
        except FuturesTimeoutError:
            return False

    def ensure_healthy(self, timeout: float = 60.0) -> None:
        """Ping; respawn and re-ping once; raise if the pool stays down."""
        if self.ping(timeout=timeout):
            return
        if not self.ping(timeout=timeout):
            raise ServiceError("worker pool failed health check after respawn")

    # -- record shipping -------------------------------------------------------

    def _record_for(self, fingerprint: str, request, force: bool):
        # caller holds self._lock
        record = self._records.get(fingerprint)
        if record is None:
            record = _encode_record(request)
            self._records[fingerprint] = record
            while len(self._records) > self.record_cache_entries:
                self._records.popitem(last=False)
        else:
            self._records.move_to_end(fingerprint)
        shipped = self._shipped.get(fingerprint, 0)
        if force or shipped < self.max_workers:
            # until every worker can have seen it, keep attaching the
            # record; after that the per-worker caches carry it
            self._shipped[fingerprint] = shipped + 1
            self.stats.count("worker_records_shipped")
            return record
        return None

    # -- task execution --------------------------------------------------------

    def run(self, tasks: Sequence[WorkerTask]) -> List[Any]:
        """Execute *tasks*, returning payloads in input order.

        Resubmits tasks that answered ``need_record`` (with the record
        forced on) and tasks interrupted by a worker death (on a fresh
        pool).  The first real task exception propagates, as from
        ``Executor.map``.
        """
        results: List[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        force = [False] * len(tasks)
        respawns = 0
        while pending:
            with self._lock:
                pool = self._ensure_pool()
                futures = []
                for i in pending:
                    kind, fingerprint, request, extra = tasks[i]
                    if kind in ("ping", "crash"):
                        record = None
                    else:
                        record = self._record_for(fingerprint, request, force[i])
                    futures.append(
                        pool.submit(
                            _worker_task, (kind, fingerprint, record, extra)
                        )
                    )
                self.stats.count("worker_tasks", len(pending))
            retry: List[int] = []
            broken = False
            failure: Optional[BaseException] = None
            for i, future in zip(pending, futures):
                try:
                    status, payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    retry.append(i)
                    continue
                except BaseException as exc:  # a real task error
                    if failure is None:
                        failure = exc
                    continue
                if status == "need_record":
                    self.stats.count("worker_record_misses")
                    force[i] = True
                    retry.append(i)
                else:
                    results[i] = payload
            if broken:
                self.stats.count("worker_respawns")
                self._discard_pool()
                respawns += 1
                if respawns > self.max_respawns:
                    raise ServiceError(
                        f"worker pool died {respawns} times during one "
                        f"dispatch (max_respawns={self.max_respawns})"
                    )
            if failure is not None:
                raise failure
            pending = retry
        return results

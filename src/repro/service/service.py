"""The compile service: content-addressed caching + batch compilation.

:class:`CompileService` fronts :func:`repro.compile_api.caqr_compile`
with the two-tier cache from :mod:`repro.service.cache`:

* :meth:`CompileService.compile` — one request; serves warm fingerprints
  from the cache, folds concurrent identical requests onto the single
  in-flight compilation (thread-safe), and stores fresh results.
* :meth:`CompileService.compile_batch` — many requests at once;
  deduplicates identical members by fingerprint, probes the cache per
  unique key, fans the remaining cold keys over the service's persistent
  :class:`~repro.parallel.WorkerPool`, and returns reports in
  **input order** regardless of completion order.

Both run one path (``_serve``): lookup -> claim -> compile -> store ->
publish; a single request is the one-member case of a batch.

``from_cache`` semantics: a report carries ``from_cache=True`` when it
was served from an entry (or an in-flight compilation) that this request
did not itself pay for — cache hits, in-flight joins, and duplicate batch
members.  The request that actually ran ``caqr_compile`` gets
``from_cache=False``.  Every caller receives an independent report
object; nothing mutable is shared between callers or with the cache.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from threading import Lock
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import CompileReport, CompileRequest, caqr_compile
from repro.exceptions import ServiceError
from repro.hardware.backends import Backend
from repro.parallel import WorkerPool, default_workers, fans_out
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    DiskCache,
    MemoryCache,
    TieredCache,
)
from repro.service.serialization import dumps_entry, loads_entry
from repro.stats import Stats

__all__ = [
    "CompileRequest",
    "CompileService",
    "default_service",
    "reset_default_service",
    "resolve_cache",
]


def _cold_compile(request: CompileRequest) -> CompileReport:
    # through this module's ``caqr_compile`` binding, so a tracer that
    # wraps the entry point by name sees every cold compile the service runs
    return caqr_compile(request.target, request.backend, **request.knobs())


def _compile_entry(payload: Tuple[str, CompileRequest]) -> str:
    """Pool task: cold-compile one pickled request into its cache entry."""
    key, request = payload
    return dumps_entry(key, _cold_compile(request))


class CompileService:
    """Content-addressed compile cache + batch engine (thread-safe).

    Args:
        cache_dir: directory for the persistent tier; ``None`` keeps the
            cache purely in-process.
        memory_entries / memory_bytes: LRU caps of the in-process tier.
        max_workers: width of the persistent
            :class:`~repro.parallel.WorkerPool` that batch calls fan
            out over (default :func:`repro.parallel.default_workers`).
            The pool spawns lazily and is reused across batch calls.
        stats: optional shared :class:`Stats` sink.
        ttl: optional entry lifetime in seconds for *both* tiers —
            entries older than this count as misses and are dropped
            (groundwork for calibration-drift invalidation).
        disk_entries / disk_bytes: optional per-shard LRU caps on the
            persistent tier (see :class:`~repro.service.cache.DiskCache`).
        ttl_by_bands: per-``calib_bands`` TTL overrides for *both*
            tiers — wider (coarser) drift bands tolerate more
            calibration movement per entry, so they typically get
            *shorter* lifetimes than exact digests (see
            :class:`~repro.service.cache.DiskCache`).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_entries: int = DEFAULT_MAX_ENTRIES,
        memory_bytes: int = DEFAULT_MAX_BYTES,
        max_workers: Optional[int] = None,
        stats: Optional[Stats] = None,
        ttl: Optional[float] = None,
        disk_entries: Optional[int] = None,
        disk_bytes: Optional[int] = None,
        ttl_by_bands: Optional[Mapping[int, float]] = None,
    ):
        self.stats = stats if stats is not None else Stats()
        memory = MemoryCache(
            memory_entries,
            memory_bytes,
            stats=self.stats,
            ttl=ttl,
            ttl_by_bands=ttl_by_bands,
        )
        disk = (
            DiskCache(
                cache_dir,
                stats=self.stats,
                ttl=ttl,
                max_entries_per_shard=disk_entries,
                max_bytes_per_shard=disk_bytes,
                ttl_by_bands=ttl_by_bands,
            )
            if cache_dir
            else None
        )
        self.cache = TieredCache(memory, disk)
        self.max_workers = max_workers or default_workers()
        self._lock = Lock()
        self._inflight: Dict[str, "Future[str]"] = {}
        self._workers = WorkerPool(self.max_workers, stats=self.stats)

    def worker_pool(self) -> WorkerPool:
        """The persistent batch pool; its processes spawn on first use."""
        return self._workers

    def close(self) -> None:
        """Shut the pool down (idempotent; the next use respawns it)."""
        self._workers.shutdown()

    # -- the request path ------------------------------------------------------

    def compile(
        self,
        target: Union[QuantumCircuit, nx.Graph],
        backend: Optional[Backend] = None,
        **knobs: Any,
    ) -> CompileReport:
        """Cached ``caqr_compile``: warm keys skip QS/SR entirely.

        *knobs* are the other :class:`CompileRequest` fields, by name.
        """
        return self.compile_request(CompileRequest(target, backend, **knobs))

    def compile_request(self, request: CompileRequest) -> CompileReport:
        """Serve one :class:`CompileRequest` through the cache."""
        return self.compile_classified(request)[0]

    def compile_classified(
        self, request: CompileRequest, fingerprint: Optional[str] = None
    ) -> Tuple[CompileReport, str, str]:
        """Serve one request, returning ``(report, fingerprint, status)``.

        *status* is the wire-protocol cache label: ``"hit"`` (warm
        tier), ``"inflight"`` (joined an identical compilation another
        request started), or ``"miss"`` (this request paid for the cold
        compile).  The HTTP server forwards it as the ``X-CaQR-Cache``
        header.  Callers that already derived the fingerprint (the
        server's envelope fast path) pass it to skip re-hashing.
        """
        self.stats.count("requests")
        if fingerprint is None:
            with self.stats.timed("fingerprint"):
                fingerprint = request.fingerprint()
        return self._serve([request], [fingerprint])[0]

    def compile_batch(
        self, requests: Sequence[CompileRequest], parallel: bool = True
    ) -> List[CompileReport]:
        """Compile many requests; results come back in input order.

        Identical members (same fingerprint) are folded to one
        compilation; cache-warm keys are served without compiling; the
        remaining cold keys fan out over a process pool when *parallel*
        and more than one key is cold.
        """
        served = self.compile_batch_classified(requests, parallel)
        return [report for report, _, _ in served]

    def compile_batch_classified(
        self, requests: Sequence[CompileRequest], parallel: bool = True
    ) -> List[Tuple[CompileReport, str, str]]:
        """:meth:`compile_batch` as ``(report, fingerprint, status)`` per
        member: a member folded onto another member's compile answers
        ``"inflight"``, like a request that joined one in flight."""
        stats = self.stats
        for request in requests:
            if not isinstance(request, CompileRequest):
                raise ServiceError(
                    f"compile_batch expects CompileRequest members, "
                    f"got {type(request).__name__}"
                )
        stats.count("batch_calls")
        stats.count("batch_requests", len(requests))
        stats.count("requests", len(requests))
        with stats.timed("fingerprint"):
            keys = [request.fingerprint() for request in requests]
        stats.count("batch_unique", len(set(keys)))
        return self._serve(requests, keys, parallel)

    def _serve(
        self,
        requests: Sequence[CompileRequest],
        keys: Sequence[str],
        batch: Optional[bool] = None,
    ) -> List[Tuple[CompileReport, str, str]]:
        """The one request path: lookup -> claim -> compile -> store -> publish.

        Members sharing a key fold onto the first.  Per unique key: a warm
        entry is a hit (decoded once); otherwise the key is claimed, and
        a key another caller already claimed is joined.  Claimed keys
        compile, are stored and published to their joiners.  The member
        that paid for a compile keeps its in-memory report; every other
        member decodes its own copy of the entry.  *batch* is a batch
        call's ``parallel``: two or more cold keys may fan out over the
        worker pool.  A single request compiles in this thread.
        """
        stats = self.stats
        unique: Dict[str, CompileRequest] = {}
        for key, request in zip(keys, requests):
            unique.setdefault(key, request)
        if len(unique) < len(requests):
            stats.count("dedup_folds", len(requests) - len(unique))
        shards = {key: request.shard() for key, request in unique.items()}
        first: Dict[str, CompileReport] = {}
        hits: set = set()
        texts: Dict[str, str] = {}
        joined: Dict[str, "Future[str]"] = {}
        owned: Dict[str, "Future[str]"] = {}
        cold: List[Tuple[str, CompileRequest]] = []
        for key, request in unique.items():
            entry = self._lookup_entry(
                key, shards[key], request.resolved_calib_bands()
            )
            if entry is not None:
                stats.count("hits")
                hits.add(key)
                texts[key], first[key] = entry
                continue
            primary, future = self._claim(key)
            if primary:
                stats.count("misses")
                owned[key] = future
                cold.append((key, request))
            else:
                # identical request already compiling: join it
                stats.count("dedup_folds")
                joined[key] = future

        try:
            for key, report, text in self._compile_cold(cold, batch):
                with stats.timed("store"):
                    self.cache.put(key, text, shards[key])
                stats.count("stores")
                texts[key], first[key] = text, report
                owned[key].set_result(text)
        except BaseException as exc:
            for future in owned.values():
                if not future.done():
                    future.set_exception(exc)
            raise
        finally:
            if owned:
                with self._lock:
                    for key in owned:
                        self._inflight.pop(key, None)

        for key, future in joined.items():
            texts[key] = future.result()

        served: List[Tuple[CompileReport, str, str]] = []
        for key in keys:
            report = first.pop(key, None)
            if report is not None:
                status = "hit" if key in hits else "miss"
            else:
                with stats.timed("deserialize"):
                    report = loads_entry(texts[key], key)
                status = "hit" if key in hits else "inflight"
            served.append((report, key, status))
        return served

    def _compile_cold(
        self,
        cold: List[Tuple[str, CompileRequest]],
        batch: Optional[bool],
    ) -> Iterator[Tuple[str, CompileReport, str]]:
        """Compile the claimed keys: ``(key, report, entry text)`` each."""
        if not cold:
            return
        stats = self.stats
        pooled = False
        if batch is not None:
            pooled = fans_out(None if batch else False, len(cold), self.max_workers)
            stats.count("parallel_compiles" if pooled else "serial_compiles", len(cold))
        if pooled:
            with stats.timed("compile"):
                texts = self.worker_pool().map(_compile_entry, cold)
            for (key, _), text in zip(cold, texts):
                with stats.timed("deserialize"):
                    report = loads_entry(text, key)
                report.from_cache = False
                yield key, report, text
            return
        for key, request in cold:
            with stats.timed("compile"):
                report = _cold_compile(request)
            with stats.timed("serialize"):
                text = dumps_entry(key, report)
            yield key, report, text

    # -- cache plumbing --------------------------------------------------------

    def _lookup_entry(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[Tuple[str, CompileReport]]:
        """``(entry text, decoded report)`` of a warm *key*, else ``None``.

        *bands* is the request's resolved ``calib_bands``; it picks the
        TTL both tiers apply (``ttl_by_bands``).
        """
        with self.stats.timed("lookup"):
            text = self.cache.get(key, shard, bands)
        if text is None:
            return None
        try:
            # decode here: a corrupt entry must register as a miss,
            # not blow up in the caller's hands
            with self.stats.timed("deserialize"):
                report = loads_entry(text, key)
        except ServiceError:
            # the tier counts corrupt_entries as it drops the bad file
            self.cache.drop_corrupt(key, shard)
            return None
        return text, report

    def _claim(self, key: str) -> Tuple[bool, "Future[str]"]:
        """Register intent to compile *key*; False means someone beat us."""
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                return False, future
            future = Future()
            self._inflight[key] = future
            return True, future

    def invalidate(self, fingerprint: str) -> bool:
        """Explicitly drop one fingerprint from both tiers (all shards).

        This is the calibration-drift hook: a stale entry can be retired
        by key without clearing the store.  Wired to ``POST
        /v1/cache/invalidate`` and ``repro cache clear --key``.
        """
        self.stats.count("invalidations")
        return self.cache.invalidate(fingerprint)

    def clear(self) -> None:
        """Drop every cached entry (both tiers)."""
        self.cache.clear()


# -- the process-wide default service -----------------------------------------

_default_service: Optional[CompileService] = None


def default_service() -> CompileService:
    """The lazily created process-wide service.

    Its persistent tier lives under ``$CAQR_CACHE_DIR`` when that is set
    at first use; otherwise the default service is memory-only.
    """
    global _default_service
    if _default_service is None:
        _default_service = CompileService(
            cache_dir=os.environ.get("CAQR_CACHE_DIR") or None
        )
    return _default_service


def reset_default_service() -> None:
    """Forget the process-wide service (tests re-point ``CAQR_CACHE_DIR``)."""
    global _default_service
    _default_service = None


def resolve_cache(spec: Union[None, bool, str, CompileService]):
    """Map ``caqr_compile``'s ``cache=`` argument onto a service.

    ``None``/``False`` — no caching; ``True`` — the process-wide default
    service; an ``http://`` URL string — a
    :class:`~repro.service.net.client.RemoteCompileService` talking to a
    ``repro serve`` instance (so local and remote services are drop-in
    interchangeable); any other string — a service persisting under that
    directory; a :class:`CompileService` (or anything exposing the same
    ``compile_request``/``compile_batch`` surface, e.g. an
    already-constructed remote client) — itself.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return default_service()
    if isinstance(spec, CompileService):
        return spec
    if isinstance(spec, str):
        if spec.startswith(("http://", "https://")):
            from repro.service.net.client import RemoteCompileService

            return RemoteCompileService(spec)
        return CompileService(cache_dir=spec)
    if callable(getattr(spec, "compile_request", None)) and callable(
        getattr(spec, "compile_batch", None)
    ):
        return spec
    raise ServiceError(f"unknown cache spec {spec!r}")

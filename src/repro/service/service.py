"""The compile service: content-addressed caching + batch compilation.

:class:`CompileService` fronts :func:`repro.compile_api.caqr_compile`
with the two-tier cache from :mod:`repro.service.cache`:

* :meth:`CompileService.compile` — one request; serves warm fingerprints
  from the cache, folds concurrent identical requests onto the single
  in-flight compilation (thread-safe), and stores fresh results.
* :meth:`CompileService.compile_batch` — many requests at once;
  deduplicates identical members by fingerprint, probes the cache per
  unique key, fans the remaining cold keys over the service's persistent
  :class:`~repro.service.workers.WorkerPool`, and returns reports in
  **input order** regardless of completion order.

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
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import CompileReport, caqr_compile
from repro.exceptions import ServiceError
from repro.hardware.backends import Backend
from repro.parallel import default_workers, fans_out
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_SHARD,
    DiskCache,
    MemoryCache,
    TieredCache,
)
from repro.service.fingerprint import (
    banded_backend_digest,
    request_fingerprint,
    resolve_calib_bands,
)
from repro.service.serialization import dumps_entry, loads_entry
from repro.service.workers import WorkerPool
from repro.stats import Stats

__all__ = [
    "CompileRequest",
    "CompileService",
    "default_service",
    "reset_default_service",
    "resolve_cache",
]


@dataclass
class CompileRequest:
    """One ``caqr_compile`` invocation, as data.

    The semantic knobs (everything except ``parallel`` and
    ``portfolio_workers``) feed the fingerprint; the two engine knobs
    only select *how* a cold compile runs — the serial == pooled
    harnesses pin process-pool fan-out (and the portfolio race across
    worker counts) to identical outputs, so they never invalidate a key.  ``strategy`` and
    ``objective`` are semantic: a portfolio compile may legitimately
    return a different circuit than the single-strategy path.

    ``calib_bands`` sets the drift tolerance of the backend digest
    (bands per decade; ``None`` defers to ``$CAQR_CALIB_BANDS``, ``0``
    means exact digests).  It feeds both the fingerprint and the shard,
    so in-band calibration drift keeps a request on the same cache entry
    *and* the same fleet member.
    """

    target: Union[QuantumCircuit, nx.Graph]
    backend: Optional[Backend] = None
    mode: str = "min_depth"
    qubit_limit: Optional[int] = None
    reset_style: str = "cif"
    seed: int = 11
    auto_commuting: bool = True
    parallel: bool = True
    strategy: str = "auto"
    objective: Optional[str] = None
    portfolio_workers: Optional[int] = None
    calib_bands: Optional[int] = None

    def resolved_calib_bands(self) -> Optional[int]:
        """The effective band count (explicit value, else the env default)."""
        return resolve_calib_bands(self.calib_bands)

    def fingerprint(self) -> str:
        """The content-addressed cache key for this request."""
        return request_fingerprint(
            self.target,
            backend=self.backend,
            mode=self.mode,
            qubit_limit=self.qubit_limit,
            reset_style=self.reset_style,
            seed=self.seed,
            auto_commuting=self.auto_commuting,
            strategy=self.strategy,
            objective=self.objective,
            calib_bands=self.calib_bands,
        )

    def shard(self) -> str:
        """The disk-cache shard this request's entry lives in.

        One shard per backend calibration *band* (a 16-hex-char prefix of
        the banded backend digest — the exact digest when banding is
        off); backend-less requests share
        :data:`~repro.service.cache.DEFAULT_SHARD`.  The fleet's
        :func:`~repro.service.fleet.ring_key` routes by this value, so
        banding also keeps in-band drift from re-homing keys across
        servers.
        """
        digest = banded_backend_digest(self.backend, self.resolved_calib_bands())
        return digest[:16] if digest else DEFAULT_SHARD


def _cold_compile(request: CompileRequest) -> CompileReport:
    return caqr_compile(
        request.target,
        backend=request.backend,
        mode=request.mode,
        qubit_limit=request.qubit_limit,
        reset_style=request.reset_style,
        seed=request.seed,
        auto_commuting=request.auto_commuting,
        parallel=request.parallel,
        cache=None,
        strategy=request.strategy,
        objective=request.objective,
        portfolio_workers=request.portfolio_workers,
    )


class CompileService:
    """Content-addressed compile cache + batch engine (thread-safe).

    Args:
        cache_dir: directory for the persistent tier; ``None`` keeps the
            cache purely in-process.
        memory_entries / memory_bytes: LRU caps of the in-process tier.
        max_workers: width of the persistent
            :class:`~repro.service.workers.WorkerPool` that batch calls
            fan out over (default :func:`repro.parallel.default_workers`).
            The pool spawns lazily, is reused across batch calls, and
            ships each request record to a worker at most once.
        stats: optional shared :class:`Stats` sink.
        ttl: optional entry lifetime in seconds for *both* tiers —
            entries older than this count as misses and are dropped
            (groundwork for calibration-drift invalidation).
        disk_entries / disk_bytes: optional per-shard LRU caps on the
            persistent tier (see :class:`~repro.service.cache.DiskCache`).
        ttl_by_bands: per-``calib_bands`` TTL overrides for the
            persistent tier — wider (coarser) drift bands tolerate more
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
            memory_entries, memory_bytes, stats=self.stats, ttl=ttl
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

    # -- single-request path -------------------------------------------------

    def compile(
        self,
        target: Union[QuantumCircuit, nx.Graph],
        backend: Optional[Backend] = None,
        mode: str = "min_depth",
        qubit_limit: Optional[int] = None,
        reset_style: str = "cif",
        seed: int = 11,
        auto_commuting: bool = True,
        parallel: bool = True,
        strategy: str = "auto",
        objective: Optional[str] = None,
        portfolio_workers: Optional[int] = None,
        calib_bands: Optional[int] = None,
    ) -> CompileReport:
        """Cached ``caqr_compile``: warm keys skip QS/SR entirely."""
        return self.compile_request(
            CompileRequest(
                target=target,
                backend=backend,
                mode=mode,
                qubit_limit=qubit_limit,
                reset_style=reset_style,
                seed=seed,
                auto_commuting=auto_commuting,
                parallel=parallel,
                strategy=strategy,
                objective=objective,
                portfolio_workers=portfolio_workers,
                calib_bands=calib_bands,
            )
        )

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
        stats = self.stats
        stats.count("requests")
        if fingerprint is not None:
            key = fingerprint
        else:
            with stats.timed("fingerprint"):
                key = request.fingerprint()
        shard = request.shard()
        report = self._lookup(key, shard, request.resolved_calib_bands())
        if report is not None:
            stats.count("hits")
            return report, key, "hit"
        primary, future = self._claim(key)
        if not primary:
            # identical request already compiling: join it
            stats.count("dedup_folds")
            with stats.timed("deserialize"):
                return loads_entry(future.result(), key), key, "inflight"
        stats.count("misses")
        try:
            with stats.timed("compile"):
                report = _cold_compile(request)
            text = self._store(key, report, shard)
            future.set_result(text)
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        return report, key, "miss"

    # -- batch path ------------------------------------------------------------

    def compile_batch(
        self,
        requests: Sequence[CompileRequest],
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> List[CompileReport]:
        """Compile many requests; results come back in input order.

        Identical members (same fingerprint) are folded to one
        compilation; cache-warm keys are served without compiling; the
        remaining cold keys fan out over a process pool when *parallel*
        and more than one key is cold.
        """
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
        unique: Dict[str, CompileRequest] = {}
        for key, request in zip(keys, requests):
            unique.setdefault(key, request)
        stats.count("batch_unique", len(unique))
        stats.count("dedup_folds", len(requests) - len(unique))
        shards = {key: request.shard() for key, request in unique.items()}

        texts: Dict[str, str] = {}
        fresh: set = set()
        joined: Dict[str, "Future[str]"] = {}
        owned: Dict[str, "Future[str]"] = {}
        cold: List[Tuple[str, CompileRequest]] = []
        for key, request in unique.items():
            text = self._lookup_text(
                key, shards[key], request.resolved_calib_bands()
            )
            if text is not None:
                stats.count("hits")
                texts[key] = text
                continue
            primary, future = self._claim(key)
            if primary:
                stats.count("misses")
                owned[key] = future
                cold.append((key, request))
            else:
                stats.count("dedup_folds")
                joined[key] = future

        try:
            if cold:
                workers = max_workers or self.max_workers
                if fans_out(None if parallel else False, len(cold), workers):
                    stats.count("parallel_compiles", len(cold))
                    tasks = [("entry", key, request, None) for key, request in cold]
                    with stats.timed("compile"):
                        for (key, _), text in zip(
                            cold, self.worker_pool().run(tasks)
                        ):
                            texts[key] = text
                else:
                    stats.count("serial_compiles", len(cold))
                    for key, request in cold:
                        with stats.timed("compile"):
                            report = _cold_compile(request)
                        texts[key] = dumps_entry(key, report)
                for key, _ in cold:
                    with stats.timed("store"):
                        self.cache.put(key, texts[key], shards[key])
                    fresh.add(key)
                    owned[key].set_result(texts[key])
        except BaseException as exc:
            for key, future in owned.items():
                if not future.done():
                    future.set_exception(exc)
            raise
        finally:
            with self._lock:
                for key in owned:
                    self._inflight.pop(key, None)

        for key, future in joined.items():
            texts[key] = future.result()

        results: List[CompileReport] = []
        first_fresh_seen: set = set()
        for key in keys:
            with stats.timed("deserialize"):
                report = loads_entry(texts[key], key)
            if key in fresh and key not in first_fresh_seen:
                # the member that paid for the compilation
                report.from_cache = False
                first_fresh_seen.add(key)
            results.append(report)
        return results

    # -- cache plumbing --------------------------------------------------------

    def _lookup_entry(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[Tuple[str, CompileReport]]:
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

    def _lookup_text(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[str]:
        entry = self._lookup_entry(key, shard, bands)
        return entry[0] if entry is not None else None

    def _lookup(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[CompileReport]:
        entry = self._lookup_entry(key, shard, bands)
        return entry[1] if entry is not None else None

    def _claim(self, key: str) -> Tuple[bool, "Future[str]"]:
        """Register intent to compile *key*; False means someone beat us."""
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                return False, future
            future = Future()
            self._inflight[key] = future
            return True, future

    def _store(
        self, key: str, report: CompileReport, shard: Optional[str] = None
    ) -> str:
        with self.stats.timed("serialize"):
            text = dumps_entry(key, report)
        with self.stats.timed("store"):
            self.cache.put(key, text, shard)
        self.stats.count("stores")
        return text

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
    ``compile``/``compile_batch`` surface, e.g. an already-constructed
    remote client) — itself.
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
    if callable(getattr(spec, "compile", None)) and callable(
        getattr(spec, "compile_batch", None)
    ):
        return spec
    raise ServiceError(f"unknown cache spec {spec!r}")

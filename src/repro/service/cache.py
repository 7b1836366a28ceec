"""Two-tier content-addressed store for serialized compile reports.

Both tiers store the *serialized* entry text (see
:mod:`repro.service.serialization`) rather than live report objects:
byte-accurate capacity accounting falls out for free, every hit hands the
caller an independent deserialized report (no aliasing of mutable
circuits between callers), and the memory and disk tiers stay trivially
interchangeable.

* :class:`MemoryCache` — in-process LRU with entry *and* byte caps, and
  an optional TTL (expired entries count as misses and are dropped).
* :class:`DiskCache` — one ``<shard>/<key>.json`` per entry under a user
  directory (``CAQR_CACHE_DIR``), **sharded by backend calibration
  digest**: every calibration snapshot gets its own subdirectory
  (requests without a backend share the :data:`DEFAULT_SHARD` one), so
  multi-device sweeps never contend on one directory and per-device
  eviction/invalidation stays a directory operation.  When drift
  banding is on (``CompileRequest.calib_bands`` /
  ``$CAQR_CALIB_BANDS``), the shard is the *banded* digest prefix
  (:func:`repro.service.fingerprint.banded_backend_digest`), so every
  in-band calibration snapshot of one device lands in one directory —
  and the fleet ring key derived from the shard stays put under drift.
  Writes are atomic (temp file + ``os.replace``) so a crashed writer
  can never leave a half entry under the final name; loads are
  corruption-tolerant — unreadable, truncated, stale-schema, or
  TTL-expired files count as misses and are deleted.
* :class:`TieredCache` — memory in front of optional disk, promoting
  disk hits into the memory tier.

Explicit invalidation (`invalidate`) and TTL expiry are the groundwork
for calibration-drift policies: a drifted snapshot can be retired by
fingerprint (``POST /v1/cache/invalidate``, ``repro cache clear
--key``) or aged out wholesale without touching other shards.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import ServiceError
from repro.stats import Stats

__all__ = ["DEFAULT_SHARD", "MemoryCache", "DiskCache", "TieredCache"]

DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Shard for requests with no backend (logical-level compiles).
DEFAULT_SHARD = "nobackend"

_ENTRY_SUFFIX = ".json"


class _TtlRule:
    """The one rule that picks a lookup's TTL, applied by both tiers.

    ``ttl_by_bands`` maps a ``calib_bands`` value (bands per decade; the
    request's drift-banding knob) to its own TTL, overriding ``ttl`` for
    lookups carrying that band count; lookups with an unmapped or absent
    band count fall back to ``ttl``.
    """

    def _set_ttl(
        self,
        tier: str,
        ttl: Optional[float],
        ttl_by_bands: Optional[Mapping[int, float]],
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ServiceError(f"{tier} cache needs ttl > 0 (or None)")
        for bands, band_ttl in (ttl_by_bands or {}).items():
            if int(bands) < 0:
                raise ServiceError("ttl_by_bands needs band counts >= 0")
            if band_ttl <= 0:
                raise ServiceError("ttl_by_bands needs ttl values > 0")
        self.ttl = ttl
        self.ttl_by_bands = {
            int(b): float(t) for b, t in (ttl_by_bands or {}).items()
        }

    def effective_ttl(self, bands: Optional[int] = None) -> Optional[float]:
        """The TTL governing a lookup made with *bands* drift banding."""
        if bands is not None:
            band_ttl = self.ttl_by_bands.get(int(bands))
            if band_ttl is not None:
                return band_ttl
        return self.ttl


class MemoryCache(_TtlRule):
    """In-process LRU keyed by fingerprint, capped by entries and bytes.

    ``ttl`` (seconds, per band count with ``ttl_by_bands``; see
    :class:`DiskCache`) ages entries out on lookup: an entry older than
    the TTL counts as a miss (``expired_entries``) and is dropped.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        stats: Optional[Stats] = None,
        ttl: Optional[float] = None,
        ttl_by_bands: Optional[Mapping[int, float]] = None,
    ):
        if max_entries < 1:
            raise ServiceError("memory cache needs max_entries >= 1")
        if max_bytes < 1:
            raise ServiceError("memory cache needs max_bytes >= 1")
        self._set_ttl("memory", ttl, ttl_by_bands)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = stats if stats is not None else Stats()
        # the server's compile threads and its event loop share one tier:
        # a get must not see a put evict its key between lookup and refresh
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._stamps: Dict[str, float] = {}
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Current footprint of all stored entry texts."""
        return self._bytes

    def get(self, key: str, bands: Optional[int] = None) -> Optional[str]:
        """Return the entry text for *key* (refreshing LRU order) or None.

        *bands* is the lookup's resolved ``calib_bands``; it selects the
        TTL (see :meth:`effective_ttl`).
        """
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                return None
            ttl = self.effective_ttl(bands)
            if ttl is not None and time.monotonic() - self._stamps[key] > ttl:
                self._drop(key)
                self.stats.count("expired_entries")
                return None
            self._entries.move_to_end(key)
        self.stats.count("memory_hits")
        return text

    def put(self, key: str, text: str, age: float = 0.0) -> None:
        """Insert/refresh *key*; evict LRU entries past either cap.

        *age* back-dates the entry by the seconds it has already lived
        in another tier, so it expires when that copy does.  Entries
        larger than ``max_bytes`` on their own are not cached (evicting
        the whole tier for one giant report helps nobody).
        """
        size = len(text.encode())
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:
                self._bytes -= len(self._entries.pop(key).encode())
            self._entries[key] = text
            self._stamps[key] = time.monotonic() - age
            self._bytes += size
            while (
                len(self._entries) > self.max_entries or self._bytes > self.max_bytes
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                del self._stamps[evicted_key]
                self._bytes -= len(evicted.encode())
                self.stats.count("evictions")
            self._publish()

    def invalidate(self, key: str) -> bool:
        """Drop *key* if present; return whether anything was removed."""
        with self._lock:
            return self._drop(key)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._stamps.clear()
            self._bytes = 0
            self._publish()

    def _drop(self, key: str) -> bool:
        """:meth:`invalidate` with the lock already held."""
        text = self._entries.pop(key, None)
        if text is None:
            return False
        del self._stamps[key]
        self._bytes -= len(text.encode())
        self._publish()
        return True

    def _publish(self) -> None:
        self.stats.set_value("memory_entries", len(self._entries))
        self.stats.set_value("memory_bytes", self._bytes)


class DiskCache(_TtlRule):
    """On-disk entry store: ``<directory>/<shard>/<key>.json``, atomic writes.

    *shard* is the backend calibration digest prefix the service derives
    per request (:meth:`~repro.service.service.CompileRequest.shard`);
    callers that don't track shards (direct tooling, tests) get
    :data:`DEFAULT_SHARD`.  Files directly under *directory* are not
    entries: lookups, ``len()`` and :meth:`shard_stats` ignore them.

    ``max_entries_per_shard`` / ``max_bytes_per_shard`` turn on per-shard
    LRU eviction: after every write the owning shard is trimmed back
    under its caps, oldest entry first (``disk_evictions``).  Recency is
    file mtime — without a TTL, ``get`` touches the file so hot entries
    survive; with a TTL, mtime doubles as the entry's age and is left
    alone, making eviction oldest-written first.  The freshly written
    entry itself is never evicted.

    ``ttl_by_bands`` gives a ``calib_bands`` value its own TTL (the rule
    of :class:`_TtlRule`, which the memory tier applies too).  The point
    is a per-band aging policy: a coarsely banded entry (fewer bands per
    decade — each band spans *more* calibration drift) keeps serving
    through larger drifts, so it should age out **faster** than an
    exact-digest entry, e.g. ``ttl_by_bands={1: 600.0, 4: 3600.0}`` with
    ``ttl=None`` keeping exact entries immortal.
    """

    def __init__(
        self,
        directory: str,
        stats: Optional[Stats] = None,
        ttl: Optional[float] = None,
        max_entries_per_shard: Optional[int] = None,
        max_bytes_per_shard: Optional[int] = None,
        ttl_by_bands: Optional[Mapping[int, float]] = None,
    ):
        self._set_ttl("disk", ttl, ttl_by_bands)
        if max_entries_per_shard is not None and max_entries_per_shard < 1:
            raise ServiceError("disk cache needs max_entries_per_shard >= 1")
        if max_bytes_per_shard is not None and max_bytes_per_shard < 1:
            raise ServiceError("disk cache needs max_bytes_per_shard >= 1")
        self.directory = os.path.abspath(os.path.expanduser(directory))
        self.stats = stats if stats is not None else Stats()
        self.max_entries_per_shard = max_entries_per_shard
        self.max_bytes_per_shard = max_bytes_per_shard
        os.makedirs(self.directory, exist_ok=True)

    def _shard_dir(self, shard: Optional[str]) -> str:
        return os.path.join(self.directory, shard or DEFAULT_SHARD)

    def _path(self, key: str, shard: Optional[str] = None) -> str:
        return os.path.join(self._shard_dir(shard), key + _ENTRY_SUFFIX)

    def _read(self, path: str) -> Optional[str]:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        if not text.strip():
            # zero-length or whitespace file: an interrupted non-atomic
            # writer (or filesystem fault) — purge and recompile
            self._drop_corrupt(path)
            return None
        return text

    def get(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[str]:
        """Return the entry text for *key*, dropping unreadable files.

        *bands* is the request's resolved ``calib_bands`` value; it
        selects the per-band TTL (see ``ttl_by_bands``) and is otherwise
        inert.
        """
        return self._lookup(key, shard, bands)[0]

    def _lookup(
        self, key: str, shard: Optional[str], bands: Optional[int]
    ) -> Tuple[Optional[str], float]:
        """:meth:`get`'s text and the entry's age in seconds (0 when no
        TTL applies: mtime is then recency, not age)."""
        path = self._path(key, shard)
        text = self._read(path)
        if text is None:
            return None, 0.0
        ttl = self.effective_ttl(bands)
        age = 0.0
        if ttl is not None:
            try:
                age = max(0.0, time.time() - os.path.getmtime(path))
            except OSError:
                pass
            if age > ttl:
                self.stats.count("expired_entries")
                try:
                    os.remove(path)
                except OSError:
                    pass
                return None, 0.0
        elif self.max_entries_per_shard or self.max_bytes_per_shard:
            # refresh recency so the evictor is LRU, not oldest-written;
            # with a TTL, mtime is the entry's age and must not move
            try:
                os.utime(path)
            except OSError:
                pass
        self.stats.count("disk_hits")
        return text, age

    def _drop_corrupt(self, path: str) -> None:
        self.stats.count("corrupt_entries")
        try:
            os.remove(path)
        except OSError:
            pass

    def drop_corrupt(self, key: str, shard: Optional[str] = None) -> None:
        """Remove *key*'s file because the caller found the entry bad."""
        path = self._path(key, shard)
        if os.path.exists(path):
            self._drop_corrupt(path)
        else:
            # the bad text reached the caller some other way (e.g. an
            # already-promoted memory copy); still account for it
            self.stats.count("corrupt_entries")

    def invalidate(self, key: str, shard: Optional[str] = None) -> int:
        """Explicitly remove *key*; return how many files were deleted.

        With *shard* unknown (``None``) every shard directory is probed —
        the HTTP invalidation endpoint only carries the fingerprint.
        """
        if shard is not None:
            candidates = [self._path(key, shard)]
        else:
            candidates = [self._path(key, name) for name in self.shards()]
        removed = 0
        for path in candidates:
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        if removed:
            self.stats.count("invalidated_entries", removed)
        return removed

    def put(self, key: str, text: str, shard: Optional[str] = None) -> None:
        """Atomically persist *key* (temp file + rename; never half-written)."""
        shard_dir = self._shard_dir(shard)
        os.makedirs(shard_dir, exist_ok=True)
        path = self._path(key, shard)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-" + key[:16] + "-", dir=shard_dir
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self.stats.count("disk_bytes_written", len(text.encode()))
        if self.max_entries_per_shard or self.max_bytes_per_shard:
            self._evict_shard(shard_dir, keep=path)

    def _evict_shard(self, shard_dir: str, keep: str) -> None:
        """Trim *shard_dir* under the caps, oldest mtime first.

        *keep* (the entry just written) is exempt so a single oversized
        entry cannot evict itself into a write/evict loop.
        """
        entries = []
        total_bytes = 0
        try:
            names = os.listdir(shard_dir)
        except OSError:
            return
        for name in names:
            if name.startswith(".") or not name.endswith(_ENTRY_SUFFIX):
                continue
            path = os.path.join(shard_dir, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, path))
            total_bytes += info.st_size
        entries.sort()
        removed = 0
        for _, path in entries:
            over_entries = (
                self.max_entries_per_shard is not None
                and len(entries) - removed > self.max_entries_per_shard
            )
            over_bytes = (
                self.max_bytes_per_shard is not None
                and total_bytes > self.max_bytes_per_shard
            )
            if not (over_entries or over_bytes):
                break
            if path == keep:
                continue
            try:
                size = os.path.getsize(path)
                os.remove(path)
            except OSError:
                continue
            removed += 1
            total_bytes -= size
            self.stats.count("disk_evictions")

    def shards(self) -> List[str]:
        """Sorted shard directory names currently on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name
            for name in names
            if not name.startswith(".")
            and os.path.isdir(os.path.join(self.directory, name))
        )

    def _iter_entries(self) -> Iterator[Tuple[str, str, str]]:
        """Yield ``(shard, key, path)`` for every stored entry."""
        for shard in self.shards():
            shard_dir = os.path.join(self.directory, shard)
            try:
                entries = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in entries:
                if name.endswith(_ENTRY_SUFFIX) and not name.startswith("."):
                    yield shard, name[: -len(_ENTRY_SUFFIX)], os.path.join(
                        shard_dir, name
                    )

    def keys(self) -> Iterator[str]:
        """Yield every stored fingerprint (all shards, deduplicated)."""
        seen = set()
        for _, key, _ in self._iter_entries():
            if key not in seen:
                seen.add(key)
                yield key

    def shard_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-shard entry/byte usage."""
        usage: Dict[str, Dict[str, int]] = {}
        for shard, _, path in self._iter_entries():
            bucket = usage.setdefault(shard, {"entries": 0, "bytes": 0})
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            bucket["entries"] += 1
            bucket["bytes"] += size
        return usage

    def refresh_shard_gauges(self) -> Dict[str, Dict[str, int]]:
        """Scan the store and publish ``shard_entries:<id>`` /
        ``shard_bytes:<id>`` gauges into :attr:`stats`; gauges of shards
        that vanished since the last refresh are removed."""
        usage = self.shard_stats()
        stale = [
            name
            for name in self.stats.values
            if name.startswith(("shard_entries:", "shard_bytes:"))
            and name.split(":", 1)[1] not in usage
        ]
        for name in stale:
            del self.stats.values[name]
        for shard, info in usage.items():
            self.stats.set_value(f"shard_entries:{shard}", info["entries"])
            self.stats.set_value(f"shard_bytes:{shard}", info["bytes"])
        return usage

    @property
    def total_bytes(self) -> int:
        """Summed size of every stored entry file."""
        total = 0
        for _, _, path in self._iter_entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Remove every entry file (all shards); return how many."""
        removed = 0
        for _, _, path in list(self._iter_entries()):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed


class TieredCache:
    """Memory tier in front of an optional disk tier."""

    def __init__(self, memory: MemoryCache, disk: Optional[DiskCache] = None):
        self.memory = memory
        self.disk = disk

    def get(
        self,
        key: str,
        shard: Optional[str] = None,
        bands: Optional[int] = None,
    ) -> Optional[str]:
        """Probe memory then disk; promote disk hits into memory.

        *bands* selects the per-band TTL (``ttl_by_bands``) both tiers
        apply.  A promoted entry keeps its disk age, so both tiers
        expire it at the same moment.
        """
        text = self.memory.get(key, bands)
        if text is not None:
            return text
        if self.disk is not None:
            text, age = self.disk._lookup(key, shard, bands)
            if text is not None:
                self.memory.put(key, text, age)
                return text
        return None

    def invalidate(self, key: str, shard: Optional[str] = None) -> bool:
        """Explicitly drop *key* from both tiers; True if anything went."""
        removed = self.memory.invalidate(key)
        if self.disk is not None:
            removed = bool(self.disk.invalidate(key, shard)) or removed
        return removed

    def drop_corrupt(self, key: str, shard: Optional[str] = None) -> None:
        """Drop *key* from both tiers because its entry failed to decode."""
        self.memory.invalidate(key)
        if self.disk is not None:
            self.disk.drop_corrupt(key, shard)
        else:
            self.memory.stats.count("corrupt_entries")

    def put(self, key: str, text: str, shard: Optional[str] = None) -> None:
        """Store into both tiers."""
        self.memory.put(key, text)
        if self.disk is not None:
            self.disk.put(key, text, shard)

    def clear(self) -> None:
        """Drop every entry from both tiers."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

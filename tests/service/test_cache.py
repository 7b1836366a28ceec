"""Cache tiers: LRU caps, disk persistence, corruption recovery,
backend-digest sharding, TTL expiry, and explicit invalidation."""

import os

import pytest

from repro.exceptions import ServiceError
from repro.service import DEFAULT_SHARD, DiskCache, MemoryCache, TieredCache
from repro.stats import Stats


class TestMemoryCache:
    def test_get_put_roundtrip(self):
        cache = MemoryCache()
        assert cache.get("k") is None
        cache.put("k", "payload")
        assert cache.get("k") == "payload"

    def test_entry_cap_evicts_lru(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", "1")
        cache.put("b", "2")
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", "3")
        assert cache.get("b") is None
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"
        assert cache.stats.counters["evictions"] == 1

    def test_byte_cap_evicts(self):
        cache = MemoryCache(max_entries=100, max_bytes=10)
        cache.put("a", "xxxx")
        cache.put("b", "yyyy")
        cache.put("c", "zzzz")  # 12 bytes total -> a evicted
        assert cache.get("a") is None
        assert len(cache) == 2
        assert cache.total_bytes == 8

    def test_oversized_entry_not_cached(self):
        cache = MemoryCache(max_bytes=4)
        cache.put("big", "x" * 100)
        assert cache.get("big") is None
        assert len(cache) == 0

    def test_replacing_updates_bytes(self):
        cache = MemoryCache()
        cache.put("k", "aaaa")
        cache.put("k", "bb")
        assert cache.total_bytes == 2
        assert len(cache) == 1

    def test_invalid_caps_rejected(self):
        with pytest.raises(ServiceError):
            MemoryCache(max_entries=0)
        with pytest.raises(ServiceError):
            MemoryCache(max_bytes=0)

    def test_clear(self):
        cache = MemoryCache()
        cache.put("k", "v")
        cache.clear()
        assert cache.get("k") is None
        assert cache.total_bytes == 0

    def test_invalidate(self):
        cache = MemoryCache()
        cache.put("k", "v")
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.get("k") is None
        assert cache.total_bytes == 0

    def test_ttl_expires_entries(self, monkeypatch):
        import time as time_module

        now = [1000.0]
        monkeypatch.setattr(time_module, "monotonic", lambda: now[0])
        cache = MemoryCache(ttl=10.0)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        now[0] += 11.0
        assert cache.get("k") is None
        assert cache.stats.counters["expired_entries"] == 1
        assert len(cache) == 0

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ServiceError):
            MemoryCache(ttl=0)
        with pytest.raises(ServiceError):
            DiskCache("/tmp/whatever-unused", ttl=-1)


class TestDiskCache:
    def test_roundtrip_across_instances(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("deadbeef", "payload")
        again = DiskCache(str(tmp_path))
        assert again.get("deadbeef") == "payload"
        assert list(again.keys()) == ["deadbeef"]
        assert again.total_bytes == len("payload")

    def test_missing_key(self, tmp_path):
        assert DiskCache(str(tmp_path)).get("nope") is None

    def test_empty_file_treated_as_corrupt(self, tmp_path):
        store = DiskCache(str(tmp_path))
        (tmp_path / "abc.json").write_text("")
        assert store.get("abc") is None
        assert store.stats.counters["corrupt_entries"] == 1
        assert not (tmp_path / "abc.json").exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k1", "v1")
        store.put("k1", "v2")  # overwrite goes through a fresh temp file
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []
        assert store.get("k1") == "v2"

    def test_clear_returns_count(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("a", "1")
        store.put("b", "2")
        assert store.clear() == 2
        assert len(store) == 0

    def test_nested_directory_created(self, tmp_path):
        nested = tmp_path / "deep" / "cache"
        store = DiskCache(str(nested))
        store.put("k", "v")
        assert store.get("k") == "v"


class TestDiskShards:
    def test_default_shard_layout(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("abc", "v")
        assert (tmp_path / DEFAULT_SHARD / "abc.json").is_file()
        assert store.shards() == [DEFAULT_SHARD]

    def test_shards_are_isolated_directories(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k", "for-device-a", shard="aaaa1111")
        store.put("k", "for-device-b", shard="bbbb2222")
        assert store.get("k", shard="aaaa1111") == "for-device-a"
        assert store.get("k", shard="bbbb2222") == "for-device-b"
        assert store.shards() == ["aaaa1111", "bbbb2222"]
        # one fingerprint, two snapshots: keys() deduplicates
        assert list(store.keys()) == ["k"]
        assert len(store) == 1

    def test_legacy_flat_entry_migrates_on_lookup(self, tmp_path):
        (tmp_path / "old.json").write_text("legacy-payload")
        store = DiskCache(str(tmp_path))
        assert store.get("old", shard="aaaa1111") == "legacy-payload"
        assert store.stats.counters["migrated_entries"] == 1
        assert not (tmp_path / "old.json").exists()
        assert (tmp_path / "aaaa1111" / "old.json").is_file()
        # second lookup hits the shard directly, no second migration
        assert store.get("old", shard="aaaa1111") == "legacy-payload"
        assert store.stats.counters["migrated_entries"] == 1

    def test_invalidate_without_shard_sweeps_everywhere(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k", "a", shard="aaaa1111")
        store.put("k", "b", shard="bbbb2222")
        (tmp_path / "k.json").write_text("legacy")
        assert store.invalidate("k") == 3
        assert store.stats.counters["invalidated_entries"] == 3
        assert store.get("k", shard="aaaa1111") is None
        assert store.invalidate("k") == 0

    def test_invalidate_with_shard_spares_others(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k", "a", shard="aaaa1111")
        store.put("k", "b", shard="bbbb2222")
        assert store.invalidate("k", shard="aaaa1111") == 1
        assert store.get("k", shard="bbbb2222") == "b"

    def test_shard_stats_and_gauges(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k1", "xxxx", shard="aaaa1111")
        store.put("k2", "yy", shard="aaaa1111")
        store.put("k3", "zzz", shard="bbbb2222")
        (tmp_path / "flat.json").write_text("w")
        usage = store.shard_stats()
        assert usage["aaaa1111"] == {"entries": 2, "bytes": 6}
        assert usage["bbbb2222"] == {"entries": 1, "bytes": 3}
        assert usage["legacy"] == {"entries": 1, "bytes": 1}
        store.refresh_shard_gauges()
        assert store.stats.values["shard_entries:aaaa1111"] == 2
        assert store.stats.values["shard_bytes:bbbb2222"] == 3
        # a cleared shard's gauges disappear on the next refresh
        store.clear()
        store.put("k9", "v", shard="cccc3333")
        store.refresh_shard_gauges()
        assert "shard_entries:aaaa1111" not in store.stats.values
        assert store.stats.values["shard_entries:cccc3333"] == 1

    def test_total_bytes_spans_shards(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put("k1", "xxxx", shard="aaaa1111")
        store.put("k2", "yy")
        assert store.total_bytes == 6
        assert store.clear() == 2
        assert store.total_bytes == 0

    def test_disk_ttl_expires_entries(self, tmp_path):
        store = DiskCache(str(tmp_path), ttl=60.0)
        store.put("k", "v")
        path = tmp_path / DEFAULT_SHARD / "k.json"
        old = path.stat().st_mtime - 120
        os.utime(path, (old, old))
        assert store.get("k") is None
        assert store.stats.counters["expired_entries"] == 1
        assert not path.exists()


class TestTtlByBands:
    @staticmethod
    def _age(tmp_path, shard, key, seconds):
        path = tmp_path / shard / f"{key}.json"
        old = path.stat().st_mtime - seconds
        os.utime(path, (old, old))
        return path

    def test_effective_ttl_resolution(self, tmp_path):
        store = DiskCache(
            str(tmp_path), ttl=3600.0, ttl_by_bands={1: 60.0, 4: 600.0}
        )
        assert store.effective_ttl(1) == 60.0
        assert store.effective_ttl(4) == 600.0
        # unmapped bands and band-less lookups use the base TTL
        assert store.effective_ttl(2) == 3600.0
        assert store.effective_ttl(None) == 3600.0
        assert store.effective_ttl(0) == 3600.0

    def test_expiry_ordering_wider_bands_age_faster(self, tmp_path):
        """The same age is expired for a wide-band lookup, still warm for
        a fine-band one, and immortal for exact digests — the ordering
        the drift policy promises."""
        store = DiskCache(
            str(tmp_path), ttl=None, ttl_by_bands={1: 60.0, 4: 600.0}
        )
        for key, shard in (("a", "s1"), ("b", "s2"), ("c", "s3")):
            store.put(key, "v", shard=shard)
            self._age(tmp_path, shard, key, 300)
        # 300s old: past the wide-band (1 band/decade) TTL of 60s
        assert store.get("a", shard="s1", bands=1) is None
        # same age survives under the finer 4-bands/decade TTL of 600s
        assert store.get("b", shard="s2", bands=4) == "v"
        # exact digests (banding off) have no TTL at all here
        assert store.get("c", shard="s3", bands=0) == "v"
        assert store.stats.counters["expired_entries"] == 1

    def test_band_ttl_overrides_base_in_both_directions(self, tmp_path):
        store = DiskCache(
            str(tmp_path), ttl=60.0, ttl_by_bands={2: 3600.0}
        )
        store.put("k", "v")
        self._age(tmp_path, DEFAULT_SHARD, "k", 300)
        # banded lookup outlives the base TTL...
        assert store.get("k", bands=2) == "v"
        # ...while the band-less lookup ages out under it
        assert store.get("k") is None

    def test_tiered_lookup_threads_bands_to_disk(self, tmp_path):
        disk = DiskCache(str(tmp_path), ttl_by_bands={1: 60.0})
        tier = TieredCache(MemoryCache(max_entries=1), disk)
        disk.put("k", "v")
        self._age(tmp_path, DEFAULT_SHARD, "k", 300)
        assert tier.get("k", bands=1) is None
        assert disk.stats.counters["expired_entries"] == 1

    def test_invalid_ttl_by_bands_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            DiskCache(str(tmp_path), ttl_by_bands={1: 0.0})
        with pytest.raises(ServiceError):
            DiskCache(str(tmp_path), ttl_by_bands={-1: 60.0})


class TestTieredCache:
    def test_disk_hit_promoted_to_memory(self, tmp_path):
        stats = Stats()
        disk = DiskCache(str(tmp_path), stats=stats)
        disk.put("k", "v")
        tier = TieredCache(MemoryCache(stats=stats), disk)
        assert tier.get("k") == "v"
        assert stats.counters["disk_hits"] == 1
        # second read is a memory hit
        assert tier.get("k") == "v"
        assert stats.counters["memory_hits"] == 1
        assert stats.counters["disk_hits"] == 1

    def test_put_reaches_both_tiers(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        tier = TieredCache(MemoryCache(), disk)
        tier.put("k", "v")
        assert disk.get("k") == "v"

    def test_memory_only(self):
        tier = TieredCache(MemoryCache())
        tier.put("k", "v")
        assert tier.get("k") == "v"
        tier.clear()
        assert tier.get("k") is None

    def test_invalidate_drops_both_tiers(self, tmp_path):
        tier = TieredCache(MemoryCache(), DiskCache(str(tmp_path)))
        tier.put("k", "v")
        tier.invalidate("k")
        assert tier.get("k") is None
        assert TieredCache(MemoryCache(), DiskCache(str(tmp_path))).get("k") is None


class TestStats:
    def test_rates_and_merge(self):
        a = Stats()
        a.count("hits", 3)
        a.count("misses", 1)
        a.set_value("memory_bytes", 40.0)
        assert a.rate("hits", "misses") == pytest.approx(0.75)
        b = Stats()
        b.count("hits", 1)
        b.add_time("compile", 0.5)
        b.set_value("memory_bytes", 10.0)
        a.merge(b)
        assert a.counters["hits"] == 4
        assert a.timers["compile"] == pytest.approx(0.5)
        # the memory tier's footprint is a reading: merged, never summed
        assert a.values["memory_bytes"] == 10.0
        assert "hits=4" in a.summary()
        assert Stats().rate("hits", "misses") == 0.0

    def test_timed_context(self):
        stats = Stats()
        with stats.timed("lookup"):
            pass
        assert stats.timers["lookup"] >= 0.0


class TestDiskEviction:
    """Per-shard LRU eviction behind the byte/entry caps."""

    def _backdate(self, cache, key, age, shard=None):
        path = cache._path(key, shard)
        stamp = os.path.getmtime(path) - age
        os.utime(path, (stamp, stamp))

    def test_entry_cap_evicts_oldest(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries_per_shard=2)
        cache.put("aa", "1")
        self._backdate(cache, "aa", 200)
        cache.put("bb", "2")
        self._backdate(cache, "bb", 100)
        cache.put("cc", "3")
        assert cache.get("aa") is None
        assert cache.get("bb") == "2"
        assert cache.get("cc") == "3"
        assert cache.stats.counters["disk_evictions"] == 1

    def test_byte_cap_evicts_until_under(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_bytes_per_shard=250)
        cache.put("aa", "x" * 100)
        self._backdate(cache, "aa", 200)
        cache.put("bb", "y" * 100)
        self._backdate(cache, "bb", 100)
        cache.put("cc", "z" * 100)  # 300 bytes in the shard -> drop "aa"
        assert cache.get("aa") is None
        assert cache.get("bb") == "y" * 100
        assert cache.get("cc") == "z" * 100
        assert cache.stats.counters["disk_evictions"] == 1

    def test_get_refreshes_recency_without_ttl(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries_per_shard=2)
        cache.put("aa", "1")
        self._backdate(cache, "aa", 200)
        cache.put("bb", "2")
        self._backdate(cache, "bb", 100)
        assert cache.get("aa") == "1"  # touches mtime: "aa" is hot again
        cache.put("cc", "3")
        assert cache.get("bb") is None, "the cold entry is the one evicted"
        assert cache.get("aa") == "1"
        assert cache.get("cc") == "3"

    def test_ttl_mode_evicts_oldest_written(self, tmp_path):
        # with a TTL, mtime doubles as the entry's age: a hit must NOT
        # refresh it, so eviction stays oldest-written first
        cache = DiskCache(str(tmp_path), ttl=3600.0, max_entries_per_shard=2)
        cache.put("aa", "1")
        self._backdate(cache, "aa", 200)
        cache.put("bb", "2")
        self._backdate(cache, "bb", 100)
        assert cache.get("aa") == "1"  # a hit, but recency must not move
        cache.put("cc", "3")
        assert cache.get("aa") is None
        assert cache.get("bb") == "2"

    def test_fresh_write_survives_even_over_cap(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_bytes_per_shard=150)
        cache.put("aa", "x" * 100)
        self._backdate(cache, "aa", 100)
        cache.put("bb", "y" * 200)  # over the cap all by itself
        assert cache.get("aa") is None
        assert cache.get("bb") == "y" * 200, "the fresh entry is never evicted"

    def test_shards_trim_independently(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries_per_shard=1)
        cache.put("aa", "1", shard="s1")
        cache.put("bb", "2", shard="s2")
        assert cache.get("aa", shard="s1") == "1"
        assert cache.get("bb", shard="s2") == "2"
        self._backdate(cache, "aa", 100, shard="s1")
        cache.put("cc", "3", shard="s1")
        assert cache.get("aa", shard="s1") is None
        assert cache.get("bb", shard="s2") == "2"
        assert cache.get("cc", shard="s1") == "3"

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        for i in range(5):
            cache.put(f"k{i}", "x" * 100)
        assert all(cache.get(f"k{i}") for i in range(5))
        assert "disk_evictions" not in cache.stats.counters

    def test_invalid_caps_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            DiskCache(str(tmp_path), max_entries_per_shard=0)
        with pytest.raises(ServiceError):
            DiskCache(str(tmp_path), max_bytes_per_shard=0)

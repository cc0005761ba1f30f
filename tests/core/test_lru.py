"""LRUCache: the shared bounded cache of the program-level memos."""

from repro.core.lru import DEFAULT_CACHE_CAP, LRUCache


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert len(cache) == 1

    def test_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")          # refresh "a": "b" is now the oldest
        cache.put("d", "D")
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("d") == "D"
        assert cache.evictions == 1
        assert len(cache) == 3

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)       # evicts "b", not the refreshed "a"
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_put_existing_key_updates_and_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)       # evicts "b"
        assert cache.get("a") == 10
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_eviction_one_at_a_time(self):
        cache = LRUCache(3)
        overflow = 5
        for index in range(3 + overflow):
            cache.put(index, index)
        assert cache.evictions == overflow
        assert len(cache) == 3
        # The survivors are exactly the most recent cap-many keys.
        survivors = [index for index in range(3 + overflow)
                     if cache.get(index) is not None]
        assert survivors == [overflow, overflow + 1, overflow + 2]

    def test_clear_preserves_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        cache.put("c", 3)
        hits, misses, evictions = cache.hits, cache.misses, cache.evictions
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (
            hits, misses, evictions)

    def test_default_cap_is_sane(self):
        assert DEFAULT_CACHE_CAP >= 16

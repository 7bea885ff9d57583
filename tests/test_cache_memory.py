"""MemoryCache: strict byte-bounded LRU semantics (repro.cache.memory).

Pins the tier's three contracts: eviction is strict LRU over *both*
gets and puts, the byte budget is a hard invariant after every
operation, and every mutation is visible in the stats counters.
"""

import threading

import pytest

from repro.cache.memory import MemoryCache


class TestLRUOrder:
    def test_interleaved_get_put_eviction_order(self):
        """A get refreshes recency, so the un-got key evicts first."""
        cache = MemoryCache(max_bytes=30)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.put("c", "C", 10)
        assert cache.keys() == ["a", "b", "c"]
        # Touch "a": now "b" is coldest.
        assert cache.get("a") == "A"
        assert cache.keys() == ["b", "c", "a"]
        cache.put("d", "D", 10)  # evicts exactly "b"
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.stats().evictions == 1

    def test_re_put_refreshes_recency_and_charge(self):
        cache = MemoryCache(max_bytes=30)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.put("a", "A2", 15)  # replace: now 25 bytes, "b" coldest
        assert cache.bytes_used == 25
        assert cache.keys() == ["b", "a"]
        cache.put("c", "C", 10)  # 35 > 30: evict "b" only
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == "A2"

    def test_eviction_cascades_until_budget_holds(self):
        cache = MemoryCache(max_bytes=30)
        for name in "abc":
            cache.put(name, name, 10)
        assert cache.put("z", "Z", 25) == 3  # must evict a, b and c
        assert cache.keys() == ["z"]
        assert cache.stats().evictions == 3


class TestByteBudget:
    def test_budget_is_invariant_after_every_put(self):
        cache = MemoryCache(max_bytes=100)
        for k in range(50):
            cache.put(f"k{k}", k, 17)
            assert cache.bytes_used <= 100
        stats = cache.stats()
        assert stats.entries == len(cache)
        assert stats.bytes_used == cache.bytes_used
        assert stats.puts == 50
        assert stats.evictions == 50 - stats.entries

    def test_oversize_entry_rejected_not_stored(self):
        """One unstorable value must not flush the whole cache."""
        cache = MemoryCache(max_bytes=20)
        cache.put("a", "A", 10)
        assert cache.put("big", "B", 21) == 0
        assert "big" not in cache
        assert cache.get("a") == "A"
        assert cache.stats().oversize_rejections == 1

    def test_zero_byte_entries_allowed(self):
        cache = MemoryCache(max_bytes=10)
        assert cache.put("empty", "E", 0) == 0
        assert cache.get("empty") == "E"

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            MemoryCache(max_bytes=10).put("k", "v", -1)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            MemoryCache(max_bytes=0)


class TestAccounting:
    def test_hits_misses_and_contains(self):
        cache = MemoryCache(max_bytes=100)
        cache.put("a", "A", 1)
        cache.get("a")
        cache.get("nope")
        assert "a" in cache  # __contains__ must not touch counters
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_delete_and_clear_release_bytes(self):
        cache = MemoryCache(max_bytes=100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.delete("a") is True
        assert cache.delete("a") is False
        assert cache.bytes_used == 40
        cache.clear()
        assert cache.bytes_used == 0
        assert len(cache) == 0

    def test_thread_safety_under_contention(self):
        """Concurrent put/get storms must keep the budget invariant."""
        cache = MemoryCache(max_bytes=500)

        def worker(base):
            for k in range(200):
                cache.put(f"{base}-{k % 20}", k, 13)
                cache.get(f"{base}-{(k + 7) % 20}")

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.bytes_used <= 500
        assert cache.bytes_used == 13 * len(cache)

"""The memo cache: LRU behaviour and counters."""

from repro.service import MemoCache

SOLUTION_A = {"algorithm": "a", "makespan": 1.0}
SOLUTION_B = {"algorithm": "b", "makespan": 2.0}


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = MemoCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", SOLUTION_A)
        assert cache.get("k1") == SOLUTION_A
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_lru_eviction_order(self):
        cache = MemoCache(capacity=2)
        cache.put("k1", SOLUTION_A)
        cache.put("k2", SOLUTION_B)
        # Touch k1 so k2 becomes the least recently used.
        assert cache.get("k1") == SOLUTION_A
        cache.put("k3", SOLUTION_A)
        assert cache.get("k2") is None  # evicted
        assert cache.get("k1") == SOLUTION_A
        assert cache.get("k3") == SOLUTION_A
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_capacity_zero_disables(self):
        cache = MemoCache(capacity=0)
        cache.put("k1", SOLUTION_A)
        assert cache.get("k1") is None
        assert len(cache) == 0
        assert cache.stats()["stores"] == 0

    def test_negative_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="capacity"):
            MemoCache(capacity=-1)

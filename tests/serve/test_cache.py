"""QueryCache: LRU + TTL semantics, epoch stamps, metrics."""

import pytest

from repro.obs import MetricsRegistry, activated
from repro.serve import QueryCache


class FakeClock:
    """A manually advanced clock for deterministic TTL tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        """The current fake time."""
        return self.now

    def advance(self, seconds):
        """Move time forward."""
        self.now += seconds


class TestLRU:
    """Capacity-bounded least-recently-used behaviour."""

    def test_miss_then_hit(self):
        """A stored value comes back for the same spec at its epoch."""
        cache = QueryCache(capacity=4)
        hit, value = cache.get("fp", 3)
        assert not hit and value is None
        cache.put("fp", 3, {"answer": 42})
        hit, value = cache.get("fp", 3)
        assert hit and value == {"answer": 42}

    def test_epoch_is_part_of_the_key(self):
        """The same spec at a later epoch misses."""
        cache = QueryCache(capacity=4)
        cache.put("fp", 3, "old")
        hit, _ = cache.get("fp", 9)
        assert not hit

    def test_capacity_evicts_least_recently_used(self):
        """Touching an entry protects it; the cold one is evicted."""
        cache = QueryCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == (True, 1)  # refresh a
        cache.put("c", 0, 3)                   # evicts b
        assert cache.get("a", 0) == (True, 1)
        assert cache.get("b", 0) == (False, None)
        assert cache.get("c", 0) == (True, 3)
        assert len(cache) == 2

    def test_invalid_capacity_rejected(self):
        """A zero-capacity cache is a configuration error."""
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestTTL:
    """Optional time bound over the injected clock."""

    def test_expired_entry_misses_and_evicts(self):
        """An entry older than the TTL reads as a miss."""
        clock = FakeClock()
        cache = QueryCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("fp", 0, "v")
        clock.advance(9.0)
        assert cache.get("fp", 0) == (True, "v")
        clock.advance(2.0)
        assert cache.get("fp", 0) == (False, None)
        assert len(cache) == 0

    def test_invalid_ttl_rejected(self):
        """A non-positive TTL is a configuration error."""
        with pytest.raises(ValueError):
            QueryCache(ttl=0.0)


class TestEpochEviction:
    """One entry per spec, stamped with the epoch it was computed at."""

    def test_older_epoch_entry_is_dropped_as_a_miss(self):
        """A lookup at a later epoch evicts the superseded entry."""
        metrics = MetricsRegistry()
        with activated(None, metrics):
            cache = QueryCache(capacity=8)
            cache.put("a", 3, 1)
            cache.put("b", 3, 2)
            assert cache.get("a", 9) == (False, None)
        assert len(cache) == 1
        assert cache.get("b", 3) == (True, 2)
        assert metrics.snapshot()["counters"]["query.cache_evictions"] == 1

    def test_newer_epoch_entry_misses_but_is_kept(self):
        """A slow reader on an old snapshot never evicts a fresher answer."""
        cache = QueryCache(capacity=8)
        cache.put("a", 9, "new")
        assert cache.get("a", 3) == (False, None)
        assert cache.get("a", 9) == (True, "new")
        assert len(cache) == 1

    def test_put_never_replaces_a_newer_entry(self):
        """A result computed on an old snapshot is not stored over it."""
        cache = QueryCache(capacity=8)
        cache.put("a", 9, "new")
        assert cache.put("a", 3, "old") == "old"
        assert cache.get("a", 9) == (True, "new")
        assert cache.get("a", 3) == (False, None)
        assert len(cache) == 1

    def test_put_replaces_an_older_entry(self):
        """A spec holds one entry: the newer result takes its slot."""
        cache = QueryCache(capacity=8)
        cache.put("a", 3, "old")
        cache.put("a", 9, "new")
        assert len(cache) == 1
        assert cache.get("a", 9) == (True, "new")
        assert cache.get("a", 3) == (False, None)

    def test_one_entry_per_spec_across_epochs(self):
        """Advancing epochs never grows the cache past its specs."""
        cache = QueryCache(capacity=8)
        for epoch in range(20):
            for spec in ("a", "b", "c"):
                assert cache.get(spec, epoch) == (False, None)
                cache.put(spec, epoch, (spec, epoch))
                assert cache.get(spec, epoch) == (True, (spec, epoch))
        assert len(cache) == 3

    def test_clear_empties(self):
        """clear drops everything."""
        cache = QueryCache(capacity=8)
        cache.put("a", 0, 1)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestMetrics:
    """Hit/miss/eviction counters and the size gauge."""

    def test_counters_track_operations(self):
        """Each outcome lands in its counter; the gauge tracks size."""
        metrics = MetricsRegistry()
        with activated(None, metrics):
            cache = QueryCache(capacity=1)
            cache.get("a", 0)          # miss
            cache.put("a", 0, 1)
            cache.get("a", 0)          # hit
            cache.put("b", 0, 2)       # evicts a (capacity 1)
        snap = metrics.snapshot()["counters"]
        assert snap["query.cache_misses"] == 1
        assert snap["query.cache_hits"] == 1
        assert snap["query.cache_evictions"] == 1
        gauges = metrics.snapshot()["gauges"]
        assert gauges["query.cache_size"] == 1

    def test_gauge_follows_entries_dropped_by_get(self):
        """An older-epoch or expired entry dropped on lookup leaves
        the size gauge at the cache's length."""
        clock = FakeClock()
        metrics = MetricsRegistry()
        with activated(None, metrics):
            cache = QueryCache(capacity=4, ttl=10.0, clock=clock)
            cache.put("a", 1, "old")
            cache.put("b", 1, "aging")
            assert cache.get("a", 2) == (False, None)   # older epoch
            assert metrics.snapshot()["gauges"]["query.cache_size"] == 1
            clock.advance(11.0)
            assert cache.get("b", 1) == (False, None)   # expired
        assert len(cache) == 0
        assert metrics.snapshot()["gauges"]["query.cache_size"] == 0

    def test_stats_body(self):
        """stats() reports occupancy for the status endpoint."""
        cache = QueryCache(capacity=3, ttl=5.0, clock=FakeClock())
        cache.put("a", 0, 1)
        assert cache.stats() == {
            "entries": 1, "capacity": 3, "ttl": 5.0,
        }

"""The epoch-stamped result cache: stale answers are unrepresentable.

Classic result caches pair a TTL with explicit invalidation hooks and
still serve stale data in the gap.  This cache holds at most one entry
per canonical :class:`~repro.serve.queries.QuerySpec`, stamped with
the epoch its value was computed at, and every lookup carries the
epoch of the snapshot it answers from.  An entry hits only at its own
epoch, so advancing the stream *is* the invalidation, and this module
is the one place that rule lives:

* an entry from an older epoch is dropped, as a miss;
* an entry from a newer epoch is a miss but stays, so a slow reader
  still on an old snapshot never evicts a fresher answer;
* :meth:`QueryCache.put` never replaces an entry from a newer epoch.

There is no separate purge: a stale entry is replaced when its spec is
asked again, or falls out under the LRU bound.

Eviction is LRU over a bounded capacity, with an optional TTL for
deployments that also want time-based bounds (the TTL clock is
injectable and defaults to ``time.perf_counter``; it only ever
*removes* entries, so it can affect latency but never correctness —
the correctness argument rests on the epoch stamp alone).

Hit / miss / eviction counters and a size gauge land in the ambient
:class:`~repro.obs.MetricsRegistry` under ``query.cache_*``.
Thread-safe: one lock serialises bookkeeping; the cached values
themselves are results over immutable snapshots and are shared
without copying.
"""

import threading
import time
from collections import OrderedDict

from repro.obs import get_metrics


class QueryCache:
    """LRU + optional-TTL cache: one epoch-stamped entry per spec."""

    def __init__(self, capacity=128, ttl=None, clock=None):
        """``capacity`` bounds entries; ``ttl`` seconds (None = no TTL).

        ``clock`` injects the TTL time source (a zero-argument
        callable); tests pass a fake so expiry is deterministic.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # spec -> (epoch, value, born)

    def _metrics(self):
        """The ambient metrics registry (resolved per call)."""
        return get_metrics()

    def get(self, spec, epoch):
        """The cached ``(hit, value)`` pair for one spec at one epoch.

        ``hit`` is True only when the entry was computed at ``epoch``
        and its TTL holds.  An entry from an older epoch or past its
        TTL is evicted; one from a newer epoch is kept.  The value is
        only meaningful when ``hit``.
        """
        metrics = self._metrics()
        with self._lock:
            entry = self._entries.get(spec)
            if entry is not None:
                stamped, value, born = entry
                if stamped < epoch or (
                    self.ttl is not None and self._clock() - born > self.ttl
                ):
                    del self._entries[spec]
                    metrics.counter("query.cache_evictions").inc()
                    metrics.gauge("query.cache_size").set(len(self._entries))
                elif stamped == epoch:
                    self._entries.move_to_end(spec)
                    metrics.counter("query.cache_hits").inc()
                    return True, value
            metrics.counter("query.cache_misses").inc()
            return False, None

    def put(self, spec, epoch, value):
        """Store one result computed at ``epoch``; returns ``value``.

        An entry from a newer epoch is left in place.  LRU entries
        are evicted over capacity.
        """
        metrics = self._metrics()
        with self._lock:
            entry = self._entries.get(spec)
            if entry is None or entry[0] <= epoch:
                self._entries[spec] = (epoch, value, self._clock())
            self._entries.move_to_end(spec)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                metrics.counter("query.cache_evictions").inc()
            metrics.gauge("query.cache_size").set(len(self._entries))
        return value

    def clear(self):
        """Drop every entry (counts as evictions)."""
        metrics = self._metrics()
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                metrics.counter("query.cache_evictions").inc(dropped)
            metrics.gauge("query.cache_size").set(0)
        return dropped

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats(self):
        """JSON-safe cache descriptor for the status endpoint."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "ttl": self.ttl,
            }

"""QueryEngine: epoch stamping, caching, pooling, observability."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry, Tracer, activated
from repro.faults import BreakerBoard, BreakerOpen
from repro.serve import QueryCache, QueryEngine
from repro.serve.cache import DEFAULT_CAPACITY
from repro.stream import EpochStore

from tests.serve.corpus import make_consumer, make_pairs

ASSOC = {"kind": "assoc2d", "rows": ["field", "city"],
         "cols": ["field", "car"]}
CUBE = {"kind": "cube",
        "dimensions": [["field", "city"], ["field", "channel"]]}
TRENDS = {"kind": "trends", "key": ["field", "car", "suv"]}


def _drained_epochs(redeliver=0):
    """An EpochStore fully populated from the shared corpus."""
    epochs = EpochStore(history=None)
    consumer = make_consumer(
        make_pairs(redeliver=redeliver), epochs=epochs
    )
    consumer.run()
    return epochs


class TestStamping:
    """Responses carry the epoch they answered from."""

    def test_result_carries_current_epoch_and_seq(self):
        """The stamps come from the store's current snapshot."""
        epochs = _drained_epochs()
        engine = QueryEngine(epochs)
        result = engine.query(TRENDS)
        current = epochs.current()
        assert result.epoch == current.epoch
        assert result.seq == current.seq
        assert result.kind == "trends"
        assert not result.cached

    def test_no_epoch_yet_raises_lookup_error(self):
        """Querying an unpublished store is a 503, not a crash."""
        engine = QueryEngine(EpochStore())
        with pytest.raises(LookupError):
            engine.query(TRENDS)


class TestCaching:
    """Epoch-keyed caching: hits, invalidation, bit-identity."""

    def test_repeat_query_hits_cache_with_equal_value(self):
        """The cached answer is == the freshly computed one."""
        engine = QueryEngine(_drained_epochs(), cache=QueryCache())
        first = engine.query(ASSOC)
        second = engine.query(ASSOC)
        assert not first.cached
        assert second.cached
        assert first.value == second.value
        assert first.epoch == second.epoch

    def test_equivalent_payloads_share_one_slot(self):
        """Canonicalization collapses spelling differences."""
        engine = QueryEngine(_drained_epochs(), cache=QueryCache())
        engine.query(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"]],
             "candidates": ["field", "car"],
             "filters": {"channel": "email"}}
        )
        result = engine.query(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"],
                       ["field", "channel", "email"]],
             "candidates": ["field", "car"]}
        )
        assert result.cached

    def test_epoch_advance_invalidates(self):
        """New epoch -> old entries purged, fresh computation."""
        pairs = make_pairs()
        epochs = EpochStore(history=None)
        consumer = make_consumer(pairs, epochs=epochs)
        cache = QueryCache()
        engine = QueryEngine(epochs, cache=cache)
        assert consumer.step()
        engine.query(ASSOC)
        assert len(cache) == 1
        assert consumer.step()
        result = engine.query(ASSOC)
        assert not result.cached          # recomputed at the new epoch
        assert len(cache) == 1            # stale entry was evicted

    def test_status_is_never_cached(self):
        """Status bypasses the cache so counters stay live."""
        cache = QueryCache()
        engine = QueryEngine(_drained_epochs(), cache=cache)
        engine.query({"kind": "status"})
        engine.query({"kind": "status"})
        assert len(cache) == 0

    def test_status_body_merges_cache_and_counters(self):
        """The status value reports cache occupancy and index counts."""
        engine = QueryEngine(
            _drained_epochs(), cache=QueryCache(capacity=9),
        )
        engine.query(ASSOC)
        body = engine.query({"kind": "status"}).value
        assert body["cache"]["entries"] == 1
        assert body["cache"]["capacity"] == 9
        assert body["documents"] == len(make_pairs())
        assert QueryEngine(_drained_epochs()).query(
            {"kind": "status"}
        ).value["cache"] is None


class TestLastGood:
    """Last-good answers are kept only where an open breaker reads them."""

    def test_no_breakers_keep_nothing(self):
        """Distinct specs on a breakerless engine store no answers."""
        engine = QueryEngine(
            _drained_epochs(), cache=QueryCache(capacity=16)
        )
        for i in range(300):
            engine.query(
                {"kind": "trends", "key": ["field", "car", f"car-{i}"]}
            )
        assert len(engine.cache) == 16
        assert engine._last_good == {}

    def test_store_keeps_the_cache_capacity(self):
        """300 distinct specs leave the 16 answered last, and a recent
        one is still served degraded under an open breaker."""
        breakers = BreakerBoard()
        engine = QueryEngine(
            _drained_epochs(), cache=QueryCache(capacity=16),
            breakers=breakers,
        )
        specs = [
            {"kind": "trends", "key": ["field", "car", f"car-{i}"]}
            for i in range(300)
        ]
        answers = [engine.query(spec) for spec in specs]
        assert len(engine._last_good) == 16
        breakers.breaker("trends").force_open()
        degraded = engine.query(specs[290])
        assert degraded.degraded
        assert degraded.value == answers[290].value
        with pytest.raises(BreakerOpen):
            engine.query(specs[0])

    def test_degraded_answer_counts_as_recent(self):
        """A spec served degraded is kept over one answered before it."""
        breakers = BreakerBoard()
        engine = QueryEngine(
            _drained_epochs(), cache=QueryCache(capacity=2),
            breakers=breakers,
        )
        specs = [
            {"kind": "trends", "key": ["field", "car", f"car-{i}"]}
            for i in range(3)
        ]
        engine.query(specs[0])
        engine.query(specs[1])
        breakers.breaker("trends").force_open()
        assert engine.query(specs[0]).degraded
        breakers.breaker("trends").reset()
        engine.query(specs[2])
        breakers.breaker("trends").force_open()
        assert engine.query(specs[0]).degraded
        with pytest.raises(BreakerOpen):
            engine.query(specs[1])

    def test_store_without_a_cache_keeps_the_default_capacity(self):
        engine = QueryEngine(_drained_epochs(), breakers=BreakerBoard())
        for i in range(DEFAULT_CAPACITY + 5):
            engine.query(
                {"kind": "trends", "key": ["field", "car", f"car-{i}"]}
            )
        assert len(engine._last_good) == DEFAULT_CAPACITY


class TestPooling:
    """Concurrent readers: bit-identical to one serial reader."""

    @pytest.mark.parametrize("redeliver", [1, 4])
    def test_pooled_equals_serial(self, redeliver):
        """Every kind answers identically from four reader threads."""
        epochs = _drained_epochs(redeliver=redeliver)
        serial = QueryEngine(epochs)
        shared = QueryEngine(epochs, cache=QueryCache())
        payloads = [ASSOC, CUBE, TRENDS] * 4
        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(
                lambda payload: shared.query(payload).value, payloads
            ))
        for payload, answer in zip(payloads, answers):
            assert answer == serial.query(payload).value


class TestObservability:
    """Spans and metrics are write-only: traced == untraced."""

    def test_traced_results_equal_untraced(self):
        """Activating tracer + metrics never changes an answer."""
        epochs = _drained_epochs()
        bare = QueryEngine(epochs).query(ASSOC)
        tracer = Tracer(clock=lambda: 0.0)
        metrics = MetricsRegistry()
        with activated(tracer, metrics):
            traced = QueryEngine(epochs, cache=QueryCache()).query(ASSOC)
        assert traced.value == bare.value
        spans = tracer.finished()
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["query:assoc2d"]
        # The analytic's own spans nest under the query span.
        assert "analytic:associate" in {s.name for s in spans}

    def test_latency_histogram_and_counters(self):
        """Each query lands in the histogram and the request counters."""
        metrics = MetricsRegistry()
        engine = QueryEngine(_drained_epochs(), cache=QueryCache())
        with activated(None, metrics):
            engine.query(ASSOC)
            engine.query(ASSOC)
        snap = metrics.snapshot()
        assert snap["counters"]["query.requests"] == 2
        assert snap["counters"]["query.requests.assoc2d"] == 2
        assert snap["counters"]["query.cache_hits"] == 1
        assert snap["counters"]["query.cache_misses"] == 1
        assert snap["histograms"]["query.latency_s"]["count"] == 2

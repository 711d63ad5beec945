"""Serve chaos: faulted queries, degraded mode, deadlines over HTTPish.

The serving half of the resilience bar: with the ``query.execute``
fault point armed, a retrying engine must answer every request with a
value ``==`` to the batch computation over the epoch it was stamped
with — including under concurrent writer-vs-readers stress.  An open
breaker must serve last-good answers marked ``degraded`` (or an
honest 503 with a retry hint when it has none), and an exhausted
deadline must answer 504.
"""

import threading

import pytest

from repro.faults import (
    BreakerBoard,
    BreakerOpen,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    injecting,
)
from repro.serve import QueryCache, QueryEngine, QuerySpec, plan_query
from repro.serve.api import api_query
from repro.stream import EpochStore

from tests.faults.chaosenv import chaos_seed
from tests.serve.corpus import make_consumer, make_pairs, reference_index

NO_SLEEP = lambda _delay: None  # noqa: E731

PAYLOADS = [
    {"kind": "assoc2d", "rows": ["field", "city"],
     "cols": ["field", "car"]},
    {"kind": "relfreq", "focus": [["field", "city", "boston"]],
     "candidates": ["field", "car"], "min_focus_count": 0},
    {"kind": "cube",
     "dimensions": [["field", "city"], ["field", "channel"]]},
    {"kind": "emerging", "dimension": ["field", "channel"],
     "min_total": 1},
]

CUBE = PAYLOADS[2]


def retrying_engine(epochs, **kwargs):
    """An engine whose retry budget outlasts any times-capped spec."""
    return QueryEngine(
        epochs,
        retry=RetryPolicy(
            max_attempts=10, base_delay=0.0, max_delay=0.0,
            seed=chaos_seed(),
        ),
        retry_sleep=NO_SLEEP,
        **kwargs,
    )


def query_fault_plan(times=8):
    return FaultPlan(
        seed=chaos_seed(),
        specs=(
            FaultSpec(point="query.execute", kind="io",
                      probability=0.5, times=times),
        ),
    )


@pytest.mark.parametrize("redeliver", [1, 4])
def test_faulted_responses_equal_batch_reference(redeliver):
    """Writer-vs-readers stress with execution faults being retried."""
    pairs = make_pairs(seed=chaos_seed(), redeliver=redeliver)
    epochs = EpochStore(history=None)
    consumer = make_consumer(pairs, epochs=epochs)
    assert consumer.step()
    engine = retrying_engine(epochs, cache=QueryCache(capacity=32))
    specs = [QuerySpec.parse(dict(p)) for p in PAYLOADS]

    n_readers = 3
    queries_per_reader = 20
    start = threading.Barrier(n_readers + 1)
    samples = []
    samples_lock = threading.Lock()
    errors = []

    def writer():
        start.wait()
        while consumer.step():
            pass

    def reader(offset):
        start.wait()
        try:
            for i in range(queries_per_reader):
                spec_index = (i + offset) % len(specs)
                result = engine.query(specs[spec_index])
                with samples_lock:
                    samples.append(
                        (result.epoch, spec_index, result.value)
                    )
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(n,))
        for n in range(n_readers)
    ]
    with injecting(query_fault_plan().injector(sleep=NO_SLEEP)) as inj:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors, errors
    assert len(samples) == n_readers * queries_per_reader

    references = {}
    for epoch, spec_index, value in samples:
        key = (epoch, spec_index)
        if key not in references:
            references[key] = plan_query(
                specs[spec_index],
                reference_index(pairs, epoch),
            )
        assert value == references[key], (
            f"epoch {epoch} spec {spec_index} diverged under "
            f"{inj.plan.to_json_dict()}"
        )


def _drained_setup(breakers=None, **engine_kwargs):
    """A fully ingested stream plus an engine over its epochs."""
    pairs = make_pairs(seed=chaos_seed())
    epochs = EpochStore(history=None)
    consumer = make_consumer(pairs, epochs=epochs)
    consumer.run()
    engine = QueryEngine(epochs, breakers=breakers, **engine_kwargs)
    return pairs, engine


class TestDegradedServing:
    def test_open_breaker_serves_last_good_as_degraded(self):
        breakers = BreakerBoard(failure_threshold=2, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        good = engine.query(dict(CUBE))
        assert not good.degraded
        breakers.breaker("cube").force_open()
        degraded = engine.query(dict(CUBE))
        assert degraded.degraded
        assert degraded.cached
        assert degraded.value == good.value
        assert degraded.epoch == good.epoch
        assert degraded.to_wire()["degraded"] is True

    def test_open_breaker_without_last_good_is_503(self):
        breakers = BreakerBoard(failure_threshold=2, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        breakers.breaker("cube").force_open()
        status, body = api_query(engine, dict(CUBE))
        assert status == 503
        assert body["code"] == "breaker-open"
        assert 0 < body["retry_after"] <= 60.0

    def test_breaker_opens_after_systematic_faults(self):
        # Unretried injected errors are execution failures: enough of
        # them must trip the kind's breaker.
        breakers = BreakerBoard(failure_threshold=3, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        plan = FaultPlan(
            seed=chaos_seed(),
            specs=(FaultSpec(point="query.execute", kind="io"),),
        )
        with injecting(plan.injector(sleep=NO_SLEEP)):
            for _ in range(3):
                with pytest.raises(OSError):
                    engine.query(dict(CUBE))
            with pytest.raises(BreakerOpen):
                engine.query(dict(CUBE))

    def test_bad_requests_do_not_open_the_breaker(self):
        from repro.serve.queries import QueryError

        breakers = BreakerBoard(failure_threshold=2, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        for _ in range(5):
            with pytest.raises(QueryError):
                engine.query({"kind": "no-such-kind"})
        assert breakers.breaker("no-such-kind").state == "closed"

    def test_malformed_bucket_lists_do_not_open_the_breaker(self):
        from repro.serve.queries import QueryError

        breakers = BreakerBoard(failure_threshold=3, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        trends = {"kind": "trends", "key": ["field", "city", "boston"]}
        for _ in range(3):
            with pytest.raises(QueryError):
                engine.query({**trends, "buckets": [[1, 2]]})
        assert breakers.breaker("trends").state == "closed"
        bucketed = engine.query({**trends, "buckets": [1]})
        assert bucketed.value == plan_query(
            QuerySpec.parse({**trends, "buckets": [1]}),
            reference_index(pairs, len(pairs) - 1),
        )
        assert not engine.query(dict(trends)).degraded

    def test_degraded_answers_match_last_good_batch(self):
        breakers = BreakerBoard(failure_threshold=2, cooldown=60.0)
        pairs, engine = _drained_setup(breakers=breakers)
        spec = QuerySpec.parse(dict(CUBE))
        engine.query(spec)
        breakers.breaker("cube").force_open()
        degraded = engine.query(spec)
        batch = plan_query(
            spec, reference_index(pairs, len(pairs) - 1)
        )
        assert degraded.value == batch


class TestDeadlines:
    def test_generous_deadline_answers_normally(self):
        pairs, engine = _drained_setup(deadline_ms=60_000.0)
        status, body = api_query(engine, dict(CUBE))
        assert status == 200
        assert body["kind"] == "cube"

    def test_deadline_exhaustion_is_504(self):
        # Every attempt fails retryably and each backoff burns real
        # wall time, so the only exit from the retry loop is the
        # deadline check — the answer must be an honest 504.
        pairs, engine = _drained_setup(
            deadline_ms=50.0,
            retry=RetryPolicy(
                max_attempts=1000, base_delay=0.01, max_delay=0.01,
                seed=chaos_seed(),
            ),
        )
        plan = FaultPlan(
            seed=chaos_seed(),
            specs=(FaultSpec(point="query.execute", kind="io"),),
        )
        with injecting(plan.injector(sleep=NO_SLEEP)):
            status, body = api_query(engine, dict(CUBE))
        assert status == 504
        assert body["code"] == "deadline-exceeded"

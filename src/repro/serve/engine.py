"""The query engine: specs in, snapshot-isolated results out.

:class:`QueryEngine` is the serving core.  Every query resolves the
*current* epoch snapshot once, up front, and the whole computation —
cache lookup included — runs against that one immutable view, so a
response is internally consistent even while the consumer commits new
batches mid-flight.  The result carries the epoch it answered from;
callers that need read-your-writes can compare it to the consumer's
committed offset.

Execution reuses the batch analytics verbatim: the engine hands
:func:`~repro.serve.queries.plan_query` the snapshot, exactly the
index a batch caller would pass, which is what makes the served
``==`` bit-identity contract hold by construction rather than by
testing luck.

A query's only identity is its canonical
:class:`~repro.serve.queries.QuerySpec`: the result cache and the
last-good answers are both keyed by it.  The engine asks the cache at
the snapshot's epoch and never purges it; which entry is stale is the
cache's rule alone (:mod:`repro.serve.cache`).

The engine is also where the resilience layer meets serving:

* ``retry`` absorbs transient execution faults (the computation passes
  through the ``query.execute`` fault point, which is how the chaos
  suite injects them), and ``deadline_ms`` bounds each query's total
  budget — attempts and backoff sleeps included — failing with
  :class:`~repro.faults.retry.DeadlineExceeded` (HTTP 504) instead of
  hanging;
* ``breakers`` (a :class:`~repro.faults.breaker.BreakerBoard`) keys
  one circuit breaker per query kind.  Systematic failures trip it
  open, after which the engine **degrades** rather than erroring: a
  cacheable query whose exact spec was answered before is served that
  last-good value marked ``degraded=True``; anything else propagates
  :class:`~repro.faults.breaker.BreakerOpen` (HTTP 503 with
  ``Retry-After``).  Malformed specs and not-yet-published epochs
  never count against the breaker — clients cannot open it with bad
  requests.

Observability is write-only: ``query:<kind>`` spans, a
``query.latency_s`` histogram and request/error/degraded counters
record the run without feeding anything back — a traced, cached
engine returns the same values as a bare one.
"""

import time
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock

from repro.faults import BreakerOpen, Deadline, call_with_retry, fault_point
from repro.obs import get_metrics, get_tracer
from repro.serve.cache import DEFAULT_CAPACITY
from repro.serve.queries import CACHEABLE_KINDS, QueryError, QuerySpec, plan_query
from repro.serve.wire import result_to_wire


@dataclass(frozen=True)
class QueryResult:
    """One answered query: the value plus its provenance stamps."""

    epoch: int   # committed source offset the answer reflects
    seq: int     # dense publication number of that snapshot
    kind: str    # the spec's query kind
    value: object  # rich analytic result (what == is asserted on)
    cached: bool   # served from the epoch-stamped cache?
    degraded: bool = False  # last-good answer served under an open breaker?

    def to_wire(self):
        """The JSON-safe response body (shared by HTTP and in-process)."""
        return {
            "epoch": self.epoch,
            "seq": self.seq,
            "kind": self.kind,
            "cached": self.cached,
            "degraded": self.degraded,
            "result": result_to_wire(self.kind, self.value),
        }


class QueryEngine:
    """Plans declarative specs onto the current epoch snapshot.

    ``epochs`` is the :class:`~repro.stream.epoch.EpochStore` the
    ingesting consumer publishes into.  ``cache`` is an optional
    :class:`~repro.serve.cache.QueryCache`, keyed by the spec and
    asked at the snapshot's epoch; it alone decides staleness.
    ``clock`` injects the latency time source (defaults to
    ``time.perf_counter``); timing is observability-only.

    Resilience knobs (see the module docstring for semantics):
    ``retry`` is an optional :class:`~repro.faults.retry.RetryPolicy`
    for the execution step, ``retry_sleep`` injects its backoff
    sleeper, ``deadline_ms`` bounds each query's total budget, and
    ``breakers`` is an optional
    :class:`~repro.faults.breaker.BreakerBoard` keyed by query kind.

    The last-good store holds at most as many specs as the cache
    (:data:`~repro.serve.cache.DEFAULT_CAPACITY` without one) and
    drops the spec answered least recently.

    Thread-safe: concurrent ``query()`` calls share the cache, the
    breakers, the last-good store and the epoch store, each of which
    carries its own lock; the analytics themselves are pure reads of
    an immutable snapshot.
    """

    def __init__(self, epochs, cache=None, clock=None,
                 retry=None, retry_sleep=None, deadline_ms=None,
                 breakers=None):
        """See the class docstring for the knobs."""
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        self.epochs = epochs
        self.cache = cache
        self.retry = retry
        self.deadline_ms = deadline_ms
        self.breakers = breakers
        self._retry_sleep = retry_sleep
        self._clock = clock if clock is not None else time.perf_counter
        self._last_good_lock = Lock()
        # spec -> QueryResult (degraded pool), least recently answered
        # first
        self._last_good = OrderedDict()
        self._last_good_capacity = (
            DEFAULT_CAPACITY if cache is None else cache.capacity
        )

    def query(self, payload):
        """Answer one query payload (or pre-parsed spec).

        Returns a :class:`QueryResult` stamped with the epoch and
        publication sequence it answered from (``degraded=True`` when
        an open breaker was bridged with the last good answer).
        Raises :class:`~repro.serve.queries.QueryError` on malformed
        specs, :class:`LookupError` if no epoch has been published
        yet, :class:`~repro.faults.breaker.BreakerOpen` when the
        kind's breaker is open and no last-good answer exists, and
        :class:`~repro.faults.retry.DeadlineExceeded` when
        ``deadline_ms`` runs out.
        """
        spec = (
            payload
            if isinstance(payload, QuerySpec)
            else QuerySpec.parse(payload)
        )
        metrics = get_metrics()
        breaker = (
            self.breakers.breaker(spec.kind)
            if self.breakers is not None else None
        )
        if breaker is not None:
            try:
                breaker.allow()
            except BreakerOpen:
                degraded = self._serve_degraded(spec, metrics)
                if degraded is not None:
                    return degraded
                raise
        try:
            result = self._execute(spec, metrics)
        except (QueryError, LookupError):
            # Malformed requests and a not-yet-published epoch say
            # nothing about the analytic's health; admitting them to
            # the breaker would let bad clients open (or close) it.
            if breaker is not None:
                breaker.record_ignored()
            raise
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            metrics.counter("query.errors").inc()
            metrics.counter(f"query.errors.{spec.kind}").inc()
            raise
        if breaker is not None:
            breaker.record_success()
        self._remember_last_good(spec, result)
        return result

    def _execute(self, spec, metrics):
        """Run one admitted query against the current snapshot."""
        tracer = get_tracer()
        snapshot = self.epochs.current()
        deadline = (
            Deadline.after_ms(self.deadline_ms, op=f"query.{spec.kind}")
            if self.deadline_ms is not None else None
        )
        started = self._clock()
        with tracer.span(
            f"query:{spec.kind}",
            category="serve",
            tags={"epoch": snapshot.epoch, "seq": snapshot.seq},
        ) as span:
            cached = False
            use_cache = (
                self.cache is not None and spec.kind in CACHEABLE_KINDS
            )
            if use_cache:
                cached, value = self.cache.get(spec, snapshot.epoch)
            if not cached:

                def compute():
                    fault_point("query.execute")
                    return plan_query(spec, snapshot.index)

                if self.retry is not None:
                    value = call_with_retry(
                        compute, self.retry, deadline=deadline,
                        sleep=self._retry_sleep,
                        op=f"query.{spec.kind}",
                    )
                else:
                    if deadline is not None:
                        deadline.check()
                    value = compute()
                if use_cache:
                    self.cache.put(spec, snapshot.epoch, value)
            if spec.kind == "status":
                value = self._status_body(snapshot, value)
            span.tag("cached", cached)
        metrics.counter("query.requests").inc()
        metrics.counter(f"query.requests.{spec.kind}").inc()
        metrics.histogram("query.latency_s").observe(
            self._clock() - started
        )
        return QueryResult(
            epoch=snapshot.epoch,
            seq=snapshot.seq,
            kind=spec.kind,
            value=value,
            cached=cached,
        )

    def _remember_last_good(self, spec, result):
        """Keep the newest good answer per exact cacheable spec.

        Only an engine with breakers keeps them: its open breaker is
        the one reader (:meth:`_serve_degraded`).  Past the store's
        capacity, the spec answered least recently goes.
        """
        if (
            self.breakers is None
            or result.degraded
            or spec.kind not in CACHEABLE_KINDS
        ):
            return
        with self._last_good_lock:
            self._last_good[spec] = result
            self._last_good.move_to_end(spec)
            while len(self._last_good) > self._last_good_capacity:
                self._last_good.popitem(last=False)

    def _serve_degraded(self, spec, metrics):
        """The last good answer for ``spec``, marked degraded.

        ``None`` when the spec is uncacheable or was never answered —
        the caller then propagates :class:`BreakerOpen` so the client
        sees an honest 503 instead of a fabricated result.
        """
        if spec.kind not in CACHEABLE_KINDS:
            return None
        with self._last_good_lock:
            last = self._last_good.get(spec)
            if last is not None:
                self._last_good.move_to_end(spec)
        if last is None:
            return None
        metrics.counter("query.degraded").inc()
        metrics.counter(f"query.degraded.{spec.kind}").inc()
        return QueryResult(
            epoch=last.epoch,
            seq=last.seq,
            kind=last.kind,
            value=last.value,
            cached=True,
            degraded=True,
        )

    def _status_body(self, snapshot, stats):
        """Enrich the raw snapshot stats into the status response."""
        body = dict(stats)
        body["cache"] = (
            None if self.cache is None else self.cache.stats()
        )
        body["breakers"] = (
            None if self.breakers is None else self.breakers.states()
        )
        return body

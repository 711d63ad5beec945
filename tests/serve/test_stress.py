"""Concurrency stress: one writer ingesting, N readers querying.

The acceptance bar for the serving subsystem: while a consumer commits
micro-batches, concurrent readers issue analytic queries and *every*
response must be ``==`` to the batch computation over the exact stream
prefix named by its epoch stamp — with and without re-delivered
documents, with tracing active, and with the batch references computed
inline or on a process pool.  A torn read (a response mixing two
epochs, or observing a half-applied batch) cannot produce a value that
equals any prefix's batch reference, so the equality sweep doubles as
the no-torn-read check.
"""

import threading

import pytest

from repro.exec import make_backend
from repro.obs import MetricsRegistry, Tracer, activated
from repro.serve import QueryCache, QueryEngine, QuerySpec, plan_query
from repro.stream import EpochStore

from tests.serve.corpus import make_consumer, make_pairs, reference_index

N_READERS = 4
QUERIES_PER_READER = 30

PAYLOADS = [
    {"kind": "assoc2d", "rows": ["field", "city"],
     "cols": ["field", "car"]},
    {"kind": "relfreq", "focus": [["field", "city", "boston"]],
     "candidates": ["field", "car"], "min_focus_count": 0},
    {"kind": "trends", "key": ["field", "car", "suv"],
     "filters": {"buckets": [0, 4]}},
    {"kind": "emerging", "dimension": ["field", "channel"],
     "min_total": 1},
    {"kind": "cube",
     "dimensions": [["field", "city"], ["field", "channel"]]},
    {"kind": "drilldown", "keys": [["field", "car", "suv"]],
     "filters": {"channel": "email"}},
]


def _batch_reference(pairs, epoch, spec):
    """One-shot batch answer to ``spec`` over the stream prefix up to
    ``epoch``, on an independently built index."""
    return plan_query(spec, reference_index(pairs, epoch))


@pytest.mark.parametrize("redeliver", [1, 4])
@pytest.mark.parametrize("workers", [0, 2])
def test_reader_responses_equal_batch_reference(redeliver, workers):
    """Every concurrent response == its epoch's batch computation."""
    pairs = make_pairs(redeliver=redeliver)
    epochs = EpochStore(history=None)  # retain every epoch to verify
    consumer = make_consumer(pairs, epochs=epochs)
    # Commit one batch up front: association analysis (correctly)
    # refuses an empty index, so readers start at a non-empty epoch.
    assert consumer.step()
    engine = QueryEngine(epochs, cache=QueryCache(capacity=32))
    specs = [QuerySpec.parse(dict(p)) for p in PAYLOADS]

    start = threading.Barrier(N_READERS + 1)
    samples = []       # (epoch, spec_index, value) observations
    samples_lock = threading.Lock()
    errors = []

    def writer():
        """Ingest the whole stream, batch by batch."""
        start.wait()
        while consumer.step():
            pass

    def reader(rng_offset):
        """Fire rotating queries, collecting stamped responses."""
        start.wait()
        try:
            for i in range(QUERIES_PER_READER):
                spec = specs[(i + rng_offset) % len(specs)]
                result = engine.query(spec)
                with samples_lock:
                    samples.append(
                        (result.epoch, (i + rng_offset) % len(specs),
                         result.value)
                    )
        except Exception as exc:  # propagated to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(n,))
        for n in range(N_READERS)
    ]
    tracer = Tracer()
    with activated(tracer, MetricsRegistry()):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors, errors

    published = set(epochs.epochs())
    observed_epochs = {epoch for epoch, _, _ in samples}
    # Every stamp names a real commit boundary: no torn epochs.
    assert observed_epochs <= published
    assert len(samples) == N_READERS * QUERIES_PER_READER

    # Re-run each distinct (epoch, spec) as a one-shot batch job on an
    # independently built index over that exact stream prefix, inline
    # (workers=0) or fanned out over a process pool.
    keys = sorted({(epoch, spec_index) for epoch, spec_index, _ in samples})
    with make_backend("process", workers) as backend:
        values = backend.map(
            _batch_reference,
            [pairs] * len(keys),
            [epoch for epoch, _ in keys],
            [specs[spec_index] for _, spec_index in keys],
            label="batch-reference",
        )
    references = dict(zip(keys, values))
    for epoch, spec_index, value in samples:
        assert value == references[(epoch, spec_index)]

    # Tracing was live the whole time: the query spans must be there.
    assert any(
        span.name.startswith("query:") for span in tracer.finished()
    )


def test_final_epoch_matches_full_batch():
    """After draining, the served view equals the full-corpus batch."""
    pairs = make_pairs(redeliver=4)
    epochs = EpochStore(history=None)
    consumer = make_consumer(pairs, epochs=epochs)
    consumer.run()
    engine = QueryEngine(epochs)
    full = reference_index(pairs, len(pairs) - 1)
    for payload in PAYLOADS:
        spec = QuerySpec.parse(dict(payload))
        assert engine.query(spec).value == plan_query(spec, full)

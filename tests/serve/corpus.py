"""Shared stream corpus + wiring for the serving tests.

One deterministic synthetic feed (structured city/car/channel fields
plus a coarse time bucket) used by the epoch, engine, server and
stress tests, together with the two constructions the bit-identity
assertions compare:

* :func:`make_consumer` — the *streaming* side: a
  :class:`~repro.stream.consumer.StreamConsumer` indexing the feed and
  publishing epoch snapshots;
* :func:`reference_index` — the *batch* side: a fresh index built
  directly from the same stream prefix, with no streaming machinery
  involved.

A served answer at epoch ``e`` must equal (``==``) the analytic run
against ``reference_index(pairs, e)`` — that is the snapshot-isolation
contract.  ``make_pairs(redeliver=N)`` appends an at-least-once tail:
the first N documents arrive again with a changed car, so the stream
exercises the index's replace path (and the copy-on-write snapshots
that must not see it).
"""

from repro.engine import Document
from repro.mining.index import ConceptIndex
from repro.mining.stage import ConceptIndexStage
from repro.stream import MemorySource, StreamConsumer
from repro.util.rng import derive_rng

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]
CHANNELS = ["call", "email", "sms"]

N_DOCS = 48       # not a multiple of BATCH_DOCS: ragged final epoch
BATCH_DOCS = 7


def make_pairs(n=N_DOCS, seed=11, redeliver=0):
    """Deterministic ``(timestamp, document)`` arrivals; fresh each call.

    The first ``redeliver`` documents arrive a second time at the end,
    in the last time bucket, each with the next car in :data:`CARS`.
    """
    rng = derive_rng(seed, "serve-test-corpus")
    rows = []
    for i in range(n):
        fields = {
            "city": rng.choice(CITIES),
            "car": rng.choice(CARS),
            "channel": rng.choice(CHANNELS),
        }
        rows.append((i // 10, f"d{i}", fields))
    last_bucket = (n - 1) // 10
    for _, doc_id, fields in rows[:redeliver]:
        car = CARS[(CARS.index(fields["car"]) + 1) % len(CARS)]
        rows.append((last_bucket, doc_id, dict(fields, car=car)))
    return [
        (
            timestamp,
            Document(
                doc_id=doc_id,
                channel=fields["channel"],
                text=f"voice of customer {doc_id[1:]}",
                artifacts={"index_fields": fields},
            ),
        )
        for timestamp, doc_id, fields in rows
    ]


def reference_index(pairs, upto_offset):
    """Batch-build the index for the stream prefix ``[0, upto_offset]``.

    Mirrors exactly what :class:`ConceptIndexStage` does per document
    (fields + timestamp, no stored text) but with no consumer, no
    batching, no snapshots — the independent reference the served
    answers are compared against.
    """
    index = ConceptIndex()
    for offset, (timestamp, document) in enumerate(pairs):
        if offset > upto_offset:
            break
        index.add(
            document.doc_id,
            fields=document.artifacts["index_fields"],
            timestamp=timestamp,
            on_duplicate="replace",
        )
    return index


def make_consumer(pairs, epochs=None, batch_docs=BATCH_DOCS):
    """A stream consumer indexing ``pairs``, publishing into ``epochs``."""
    return StreamConsumer(
        MemorySource(pairs),
        [ConceptIndexStage(on_duplicate="replace")],
        batch_docs=batch_docs,
        epochs=epochs,
    )

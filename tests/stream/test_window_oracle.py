"""The window over the one index == the window that kept its own copy.

Each stream runs a real domain graph — the telecom cleaning and
churn-driver graph, the car-rental call graph, or a prop-harness case —
with a :func:`~tests.stream.reference.survivor_tap` at its end.  After
every commit, every window snapshot must ``==`` the reference window
(:class:`~tests.stream.reference.ReferenceWindow`) fed the same
survivors.  Streams arrive in order, out of order (late documents
below the floor) and with re-deliveries; crashed-and-resumed runs must
end with the uninterrupted run's snapshots.

Re-deliveries repeat a message in the bucket it was first delivered
in, as at-least-once delivery does.  A live document re-delivered
*below* the floor is the one place the two windows differ on purpose;
``test_window.py`` and :class:`TestBelowFloorRedelivery` pin it.
"""

import random

import pytest

from repro.cleaning.stage import CleaningStage
from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.core.usecases.churn import StreamAnnotateStage, churn_driver_engine
from repro.engine import Document
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.mining.index import ConceptIndex, field_key
from repro.mining.stage import ConceptIndexStage
from repro.prop import generate_case
from repro.prop.harness import TOPIC_DIMENSION, build_stages, make_documents
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
    index_to_state,
)
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom
from tests.stream.reference import (
    ReferenceWindow,
    run_with_reference,
    survivor_tap,
    window_snapshots,
)

DRIVERS = ("concept", "churn driver")
CHANNEL = ("field", "channel")
ORDERS = ("in-order", "out-of-order", "re-delivered", "mixed")


def _arrivals(items, bucket_of, order, seed):
    """``(bucket, item)`` pairs in ``order``, seeded.

    ``out-of-order`` holds about a fifth of the items back by one to
    three buckets, so they arrive late; ``re-delivered`` repeats about
    a sixth of them a few positions later, in their own bucket;
    ``mixed`` does both.
    """
    rng = random.Random(seed)
    pairs = sorted(
        ((bucket_of(item), item) for item in items),
        key=lambda pair: pair[0],
    )
    if order in ("out-of-order", "mixed"):
        keyed = [
            (bucket + (rng.randint(1, 3) if rng.random() < 0.2 else 0),
             position, (bucket, item))
            for position, (bucket, item) in enumerate(pairs)
        ]
        pairs = [pair for _, _, pair in sorted(keyed)]
    if order in ("re-delivered", "mixed"):
        out = []
        pending = []
        for pair in pairs:
            out.append(pair)
            if rng.random() < 0.17:
                pending.append([rng.randint(1, 12), pair])
            for entry in pending:
                entry[0] -= 1
            out.extend(entry[1] for entry in pending if entry[0] == 0)
            pending = [entry for entry in pending if entry[0] > 0]
        out.extend(entry[1] for entry in pending)
        pairs = out
    return pairs


def _crashing(crash_at):
    """A fatal fault on the ``crash_at``-th committed batch."""
    plan = FaultPlan(seed=0, specs=[
        FaultSpec(point="stream.batch-committed", kind="fatal",
                  after=crash_at - 1, times=1),
    ])
    return injecting(plan.injector())


def _crash_and_resume(build, tmp_path, crash_at):
    """A consumer crashed after ``crash_at`` commits, resumed, drained."""
    path = tmp_path / "ck.json"
    crashed, _ = build(path)
    with _crashing(crash_at), pytest.raises(InjectedFault):
        crashed.run()
    resumed, _ = build(path)
    resumed.restore()
    resumed.run()
    return resumed


# ----------------------------------------------------------------------
# telecom: cleaning + churn-driver annotation
# ----------------------------------------------------------------------


def _telecom(seed, order, on_duplicate="replace", checkpoint_path=None):
    """(consumer, survivors) over a seeded telecom feed."""
    corpus = generate_telecom(
        TelecomConfig(scale=0.001, n_customers=150, seed=seed)
    )
    messages = sorted(
        corpus.messages, key=lambda m: (m.month, m.message_id)
    )
    arrivals = _arrivals(messages, lambda m: m.month, order, seed)
    seen = []
    consumer = StreamConsumer(
        MemorySource(
            (month, Document(
                doc_id=message.message_id,
                channel=message.channel,
                text=message.raw_text,
                artifacts={"index_fields": {"channel": message.channel}},
            ))
            for month, message in arrivals
        ),
        [
            CleaningStage(),
            StreamAnnotateStage(churn_driver_engine()),
            ConceptIndexStage(on_duplicate=on_duplicate),
            survivor_tap(seen),
        ],
        window=WindowedAnalytics(
            2,
            assoc_specs=[AssocSpec(DRIVERS, CHANNEL)],
            relfreq_specs=[
                RelFreqSpec((field_key("channel", "email"),), DRIVERS)
            ],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=9,
        checkpoint_interval=2,
    )
    return consumer, seen


class TestTelecomStream:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_commit_equals_reference(self, seed, order):
        consumer, seen = _telecom(seed, order)
        run_with_reference(consumer, seen)
        assert consumer.report.batches > 10
        if order in ("re-delivered", "mixed"):
            assert consumer.report.upserts > 0

    @pytest.mark.parametrize("crash_at", [3, 8])
    def test_crash_resume_equals_reference(self, tmp_path, crash_at):
        consumer, seen = _telecom(3, "mixed")
        reference, _ = run_with_reference(consumer, seen)
        resumed = _crash_and_resume(
            lambda path: _telecom(3, "mixed", checkpoint_path=path),
            tmp_path, crash_at,
        )
        assert resumed.report.restored
        assert window_snapshots(resumed.window) == window_snapshots(
            reference
        )

    def test_skip_stream_keeps_first_position(self):
        """``on_duplicate="skip"``: the index keeps each document's
        first delivery where it was, and the window still equals the
        reference (which re-appended the re-delivered copy)."""
        consumer, seen = _telecom(4, "mixed", on_duplicate="skip")
        _, survivors = run_with_reference(consumer, seen)
        assert len(survivors) > len(set(survivors))
        assert consumer.index.document_ids == list(dict.fromkeys(survivors))
        view = consumer.window.index
        assert view.document_ids == [
            doc_id for doc_id in consumer.index.document_ids if doc_id in view
        ]


# ----------------------------------------------------------------------
# car rental: the real call graph (record linking, patterns, derive)
# ----------------------------------------------------------------------


CARRENTAL = CarRentalConfig(
    n_agents=4, n_days=6, calls_per_agent_per_day=3, n_customers=40,
    seed=23,
)


@pytest.fixture(scope="module")
def carrental_corpus():
    return generate_car_rental(CARRENTAL)


def _carrental(corpus, order, checkpoint_path=None):
    """(consumer, survivors) over the car-rental calls."""
    system = BIVoCSystem(BIVoCConfig(use_asr=False, link_mode="content"))
    seen = []
    stages = system.build_call_stages(
        corpus, index_stage=ConceptIndexStage(on_duplicate="replace")
    ) + [survivor_tap(seen)]
    transcripts = sorted(
        corpus.transcripts, key=lambda t: (t.day, t.call_id)
    )
    arrivals = _arrivals(transcripts, lambda t: t.day, order, CARRENTAL.seed)
    consumer = StreamConsumer(
        MemorySource(
            (day, Document(
                doc_id=transcript.call_id, channel="call",
                text=transcript.text,
                artifacts={"transcript": transcript},
            ))
            for day, transcript in arrivals
        ),
        stages,
        window=WindowedAnalytics(
            2,
            assoc_specs=[
                AssocSpec(("field", "city"), ("field", "car_type"))
            ],
            relfreq_specs=[
                RelFreqSpec(
                    (field_key("detected_intent", "strong"),),
                    ("field", "call_type"),
                )
            ],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=8,
        checkpoint_interval=2,
    )
    return consumer, seen


class TestCarRentalStream:
    @pytest.mark.parametrize("order", ORDERS)
    def test_every_commit_equals_reference(self, carrental_corpus, order):
        consumer, seen = _carrental(carrental_corpus, order)
        run_with_reference(consumer, seen)
        assert consumer.report.batches >= 9

    def test_crash_resume_equals_reference(self, carrental_corpus, tmp_path):
        consumer, seen = _carrental(carrental_corpus, "mixed")
        reference, _ = run_with_reference(consumer, seen)
        resumed = _crash_and_resume(
            lambda path: _carrental(carrental_corpus, "mixed", path),
            tmp_path, 5,
        )
        assert resumed.report.restored
        assert window_snapshots(resumed.window) == window_snapshots(
            reference
        )


# ----------------------------------------------------------------------
# prop harness: generated corpora, arriving in generation order
# ----------------------------------------------------------------------


def _prop(seed, checkpoint_path=None):
    """(consumer, survivors) over a prop case, unsorted by bucket."""
    case = generate_case(seed)
    seen = []
    consumer = StreamConsumer(
        MemorySource(
            (document.get("timestamp"), document)
            for document in make_documents(case)
        ),
        build_stages() + [survivor_tap(seen)],
        window=WindowedAnalytics(
            2,
            assoc_specs=[AssocSpec(TOPIC_DIMENSION, CHANNEL)],
            relfreq_specs=[
                RelFreqSpec(
                    (field_key("channel", case.channels[0]),),
                    TOPIC_DIMENSION,
                )
            ],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=case.batch_docs,
        checkpoint_interval=case.checkpoint_interval,
    )
    return consumer, seen


@pytest.mark.parametrize("seed", range(0, 25, 3))
def test_prop_case_equals_reference(seed, tmp_path):
    consumer, seen = _prop(seed)
    reference, _ = run_with_reference(consumer, seen)
    resumed = _crash_and_resume(
        lambda path: _prop(seed, path), tmp_path,
        generate_case(seed).crash_after,
    )
    assert index_to_state(resumed.index) == index_to_state(consumer.index)
    assert window_snapshots(resumed.window) == window_snapshots(reference)


# ----------------------------------------------------------------------
# the pinned edge, through the consumer
# ----------------------------------------------------------------------


class TestBelowFloorRedelivery:
    def test_live_document_redelivered_below_floor_leaves_window(self):
        """The index replaces the document and the window follows it.

        The window is exactly the index's documents in
        ``[floor, newest]``, which is what a batch run over the final
        index gives for that range.  The reference window kept the
        version the index had already replaced.
        """
        def doc(doc_id, city):
            return Document(doc_id=doc_id, channel="test", text=city,
                            artifacts={"index_fields": {"city": city}})

        source = MemorySource()
        source.append(doc(0, "boston"), timestamp=5)
        source.append(doc(1, "denver"), timestamp=6)
        source.append(doc(0, "miami"), timestamp=2)
        seen = []
        consumer = StreamConsumer(
            source,
            [ConceptIndexStage(on_duplicate="replace"), survivor_tap(seen)],
            window=WindowedAnalytics(3),
            batch_docs=1,
        )
        reference = ReferenceWindow(3)
        while consumer.step():
            for doc_id in seen:
                reference.ingest(
                    doc_id, consumer.index.keys_of(doc_id),
                    consumer.index.timestamp_of(doc_id),
                )
            seen.clear()
        assert consumer.index.timestamp_of(0) == 2
        assert consumer.window.index.document_ids == [1]
        batch = ConceptIndex()
        batch.add_keys(1, consumer.index.keys_of(1), timestamp=6)
        assert index_to_state(consumer.window.index) == index_to_state(batch)
        assert reference.index.document_ids == [0, 1]
        assert reference.index.timestamp_of(0) == 5

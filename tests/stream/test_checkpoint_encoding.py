"""Each checkpoint is one canonical encoding of the payload it always was.

A checkpoint encodes each indexed document once per consumer (an
:class:`~repro.stream.checkpoint.IndexStateMemo` keyed on index-entry
identity) and the whole payload once per save
(:func:`~repro.store.integrity.encode_stamped`).  The reference is the
payload the consumer has always saved, rebuilt here from public index
accessors at the moment of each save.  For every checkpoint of every
stream below:

(a) the file less its ``sha256`` member is exactly the canonical JSON
    of the reference payload, and those are the bytes hashed;
(b) the file decodes to the reference payload;
(c) its stamp is ``stamp_checksum`` of the reference payload;
(d) the state handed to ``Checkpointer.save`` ``==`` the reference.

The streams: the ``telecom-stream`` benchmark graph (seeds 1-3), the
car-rental call graph, a prop-harness stream whose re-deliveries
include edited messages (replace upserts), one with removed documents,
a document-keeping index with non-ASCII texts, and kills with a
restore mid-stream.  The seed-1 ``telecom-stream`` drain also pins the
work: how many documents the checkpoints encode and reuse.
"""

import hashlib
import json
import re

import pytest

from repro.cleaning.stage import CleaningStage
from repro.core.usecases.churn import StreamAnnotateStage, churn_driver_engine
from repro.engine import Document
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.mining.index import ConceptIndex, field_key
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, activated
from repro.prop import generate_case
from repro.prop.harness import TOPIC_DIMENSION, build_stages, make_documents
from repro.store.integrity import (
    EncodedList,
    canonical_json,
    decode_stamped,
    encode_stamped,
    stamp_checksum,
)
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
)
from repro.stream.checkpoint import CHECKPOINT_VERSION
from repro.synth.carrental import generate_car_rental
from tests.cleaning.corpus import stream_order, telecom_corpus
from tests.stream.test_carrental_stream import CONFIG as CARRENTAL
from tests.stream.test_carrental_stream import _build_consumer

CANONICAL = {"sort_keys": True, "separators": (",", ":")}
STAMP = re.compile(rb',"sha256":"([0-9a-f]{64})"\}\Z')

DRIVERS = ("concept", "churn driver")
CHANNEL = ("field", "channel")

#: Documents the seed-1 ``telecom-stream`` drain's 17 checkpoints
#: encode and reuse: each indexed version of a document once.
TELECOM_ENCODED = 634
TELECOM_REUSED = 5087


def reference_index_state(index):
    """The index block as checkpoints have always listed it."""
    documents = []
    for doc_id in index.document_ids:
        entry = {
            "doc_id": doc_id,
            "keys": sorted(list(key) for key in index.keys_of(doc_id)),
            "timestamp": index.timestamp_of(doc_id),
        }
        if index.keeps_documents:
            entry["text"] = index.text_of(doc_id)
        documents.append(entry)
    return {
        "keep_documents": index.keeps_documents,
        "documents": documents,
    }


def reference_state(consumer):
    """What the consumer's checkpoint has always handed to ``save``."""
    return {
        "offset": consumer.committed_offset,
        "report": consumer.report.to_json_dict(),
        "index": reference_index_state(consumer.index),
        "window": (
            consumer.window.to_state() if consumer.window is not None
            else None
        ),
    }


class CheckedCheckpointer(Checkpointer):
    """A checkpointer that checks (a)-(d) on every save of its consumer.

    ``visits`` records how many documents each save listed.
    """

    def __init__(self, path):
        """Checkpoint to ``path``; set :attr:`consumer` before use."""
        super().__init__(path)
        self.consumer = None
        self.visits = []

    def save(self, state):
        """Save, then hold the file to the reference payload."""
        expected = reference_state(self.consumer)
        assert state == expected  # (d)
        assert json.loads(json.dumps(state)) == expected
        super().save(state)
        with open(self.path, "rb") as handle:
            data = handle.read()
        payload = dict(expected, version=CHECKPOINT_VERSION)
        stamp = STAMP.search(data)
        assert stamp is not None
        hashed = data[:stamp.start()] + b"}"
        assert hashed == json.dumps(payload, **CANONICAL).encode()  # (a)
        recorded = stamp.group(1).decode()
        assert hashlib.sha256(hashed).hexdigest() == recorded
        assert decode_stamped(data) == payload  # (b)
        assert recorded == stamp_checksum(payload)["sha256"]  # (c)
        self.visits.append(len(expected["index"]["documents"]))
        return self


def _checked(build, tmp_path, name="ck.json"):
    """``build(checkpointer)``'s consumer, checked on every save."""
    checkpointer = CheckedCheckpointer(tmp_path / name)
    consumer = build(checkpointer)
    checkpointer.consumer = consumer
    return consumer, checkpointer


def _drain(consumer, checkpointer):
    """Run to the end, checkpointing at least once more."""
    before = len(checkpointer.visits)
    consumer.run()
    assert len(checkpointer.visits) > before


# ----------------------------------------------------------------------
# telecom-stream: the benchmark's graph, window and intervals
# ----------------------------------------------------------------------


def _telecom(seed):
    """A builder of the ``telecom-stream`` consumer over seed's corpus."""
    messages = stream_order(telecom_corpus(seed))

    def build(checkpointer):
        return StreamConsumer(
            MemorySource(
                (message.month, Document(
                    doc_id=message.message_id,
                    channel=message.channel,
                    text=message.raw_text,
                    artifacts={"index_fields": {"channel": message.channel}},
                ))
                for message in messages
            ),
            [
                CleaningStage(),
                StreamAnnotateStage(churn_driver_engine()),
                ConceptIndexStage(on_duplicate="replace"),
            ],
            window=WindowedAnalytics(
                3,
                assoc_specs=[AssocSpec(DRIVERS, CHANNEL)],
                relfreq_specs=[
                    RelFreqSpec((field_key("channel", "email"),), DRIVERS)
                ],
            ),
            checkpointer=checkpointer,
            batch_docs=10,
            checkpoint_interval=4,
        )

    return build


class TestTelecomStream:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_checkpoint_equals_reference(self, seed, tmp_path):
        consumer, checkpointer = _checked(_telecom(seed), tmp_path)
        consumer.run(checkpoint_at_end=False)
        assert len(checkpointer.visits) == consumer.report.checkpoints == 17

    def test_work_gate(self, tmp_path):
        """Each indexed document version is encoded once, at tolerance 0."""
        metrics = MetricsRegistry()
        with activated(None, metrics):
            consumer, checkpointer = _checked(_telecom(1), tmp_path)
            consumer.run(checkpoint_at_end=False)
        counters = metrics.snapshot()["counters"]
        encoded = counters["stream.checkpoint.documents.encoded"]
        reused = counters["stream.checkpoint.documents.reused"]
        assert (encoded, reused) == (TELECOM_ENCODED, TELECOM_REUSED)
        assert encoded + reused == sum(checkpointer.visits)
        # No re-deliveries: each indexed document was encoded once.
        assert consumer.report.upserts == 0
        assert encoded == len(consumer.index)


# ----------------------------------------------------------------------
# car rental: the real call graph, checkpointed after every commit
# ----------------------------------------------------------------------


def test_carrental_every_checkpoint_equals_reference(tmp_path):
    corpus = generate_car_rental(CARRENTAL)
    consumer, checkpointer = _checked(
        lambda checkpointer: _build_consumer(corpus, checkpointer), tmp_path
    )
    while consumer.step():
        consumer.checkpoint()
    assert len(checkpointer.visits) == consumer.report.batches == 3


# ----------------------------------------------------------------------
# prop harness: re-delivered and edited messages, removals, texts
# ----------------------------------------------------------------------


def _redelivered(seed):
    """(bucket, document) arrivals of a prop case with re-deliveries.

    Every fifth document is delivered again a micro-batch later:
    alternately as sent, and edited (another document's text and
    bucket under its id), so the index replaces it with new content.
    """
    case = generate_case(seed)
    delay = case.batch_docs + 3
    first, again = make_documents(case), make_documents(case)
    arrivals = []
    pending = []
    for position, document in enumerate(first):
        arrivals.append((document.get("timestamp"), document))
        if position % 5 == 0:
            copy = again[position]
            if position % 10 == 0:
                other = again[(position * 7 + 3) % len(again)]
                copy = Document(
                    doc_id=copy.doc_id, channel=other.channel,
                    text=other.text,
                    artifacts={
                        "index_fields": {"channel": other.channel},
                        "timestamp": other.get("timestamp"),
                    },
                )
            pending.append((position + delay, copy))
        while pending and pending[0][0] <= position:
            _, copy = pending.pop(0)
            arrivals.append((copy.get("timestamp"), copy))
    arrivals.extend((copy.get("timestamp"), copy) for _, copy in pending)
    return case, arrivals


def _prop(seed, index=None, edit=None):
    """A builder of a prop-harness consumer over the re-delivered stream.

    ``index`` replaces the graph's index (say, one keeping texts);
    ``edit`` rewrites each document's text before it is sent.
    """

    def build(checkpointer):
        case, arrivals = _redelivered(seed)
        if edit is not None:
            for _, document in arrivals:
                document.text = edit(document.text)
        stages = build_stages()
        if index is not None:
            stages[-1] = ConceptIndexStage(
                index=index(), on_duplicate="replace"
            )
        return StreamConsumer(
            MemorySource(arrivals),
            stages,
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
            checkpointer=checkpointer,
            batch_docs=case.batch_docs,
            checkpoint_interval=1,
        )

    return build


PROP_SEEDS = [0, 4, 9, 16]


@pytest.mark.parametrize("seed", PROP_SEEDS)
def test_prop_redeliveries_equal_reference(seed, tmp_path):
    consumer, checkpointer = _checked(_prop(seed), tmp_path)
    _drain(consumer, checkpointer)
    assert consumer.report.upserts > 0


@pytest.mark.parametrize("seed", PROP_SEEDS)
def test_removed_documents_leave_the_checkpoint(seed, tmp_path):
    """Documents removed from the live index drop out of the memo too."""
    consumer, checkpointer = _checked(_prop(seed), tmp_path)
    while consumer.step():
        index = consumer.index
        for doc_id in index.document_ids[1::4]:
            index.remove(doc_id)
        consumer.checkpoint()
        assert len(consumer._index_states._memo) == len(index)
    assert len(checkpointer.visits) > 1


def test_non_ascii_texts_are_kept_and_escaped(tmp_path):
    """A text-keeping index: fragments escape exactly as the hash does."""
    consumer, checkpointer = _checked(
        _prop(
            4, index=lambda: ConceptIndex(keep_documents=True),
            edit=lambda text: f"{text} naïve café Zürich 東京 \U0001f600",
        ),
        tmp_path,
    )
    _drain(consumer, checkpointer)
    text = consumer.index.text_of(consumer.index.document_ids[0])
    assert "東京 \U0001f600" in text
    data = (tmp_path / "ck.json").read_bytes()
    assert data.isascii() and b"\\ud83d\\ude00" in data


# ----------------------------------------------------------------------
# kill and restore mid-stream
# ----------------------------------------------------------------------


def _crashing(crash_at):
    """A fatal fault on the ``crash_at``-th committed batch."""
    plan = FaultPlan(seed=0, specs=[
        FaultSpec(point="stream.batch-committed", kind="fatal",
                  after=crash_at - 1, times=1),
    ])
    return injecting(plan.injector())


@pytest.mark.parametrize("seed", [4, 9])
def test_killed_and_resumed_equals_reference(seed, tmp_path):
    """A fresh consumer resumes a killed one's checkpoint and drains."""
    build = _prop(seed)
    crashed, _ = _checked(build, tmp_path)
    with _crashing(5), pytest.raises(InjectedFault):
        crashed.run()
    resumed, checkpointer = _checked(build, tmp_path)
    assert resumed.restore()
    _drain(resumed, checkpointer)


@pytest.mark.parametrize("seed", PROP_SEEDS)
def test_restore_in_place_equals_reference(seed, tmp_path):
    """The same consumer rewinds to its checkpoint and carries on.

    Its memo was filled from the live index, the restored index has
    new entries (and a new write count), and every later checkpoint
    must still list the restored index's documents.
    """
    consumer, checkpointer = _checked(_prop(seed), tmp_path)
    for _ in range(2):
        consumer.step()
    assert consumer.report.upserts > 0
    consumer.checkpoint_interval = 10 ** 9
    assert consumer.step()
    assert consumer.restore()
    consumer.checkpoint_interval = 1
    _drain(consumer, checkpointer)
    assert consumer.report.restored


# ----------------------------------------------------------------------
# the encoder itself
# ----------------------------------------------------------------------


PAYLOAD = {
    "offset": 12, "version": 3, "window": None,
    "index": {"keep_documents": True, "documents": [
        {"doc_id": "d1", "keys": [["field", "city", "zürich"]],
         "timestamp": 2, "text": "  \U0001f600 \"quoted\""},
        {"doc_id": 2, "keys": [], "timestamp": None, "text": ""},
    ]},
    "report": {"wall_time_s": 0.1 + 0.2, "restored": False},
}


def _encoded(payload):
    """``payload`` with its documents handed over pre-encoded."""
    documents = payload["index"]["documents"]
    index = dict(
        payload["index"],
        documents=EncodedList(
            documents, [canonical_json(item) for item in documents]
        ),
    )
    return dict(payload, index=index)


class TestEncoder:
    def test_canonical_json_is_the_hashed_form(self):
        values = (
            PAYLOAD, _encoded(PAYLOAD), {}, [PAYLOAD], "é", 1.5,
            {"a": {2: "b", 1: {"c": None}}, "d": {"e": [True]}},
        )
        for value in values:
            assert canonical_json(value) == json.dumps(value, **CANONICAL)

    def test_file_is_the_hashed_bytes_with_the_stamp_last(self):
        data = encode_stamped(_encoded(PAYLOAD))
        stamp = STAMP.search(data)
        hashed = data[:stamp.start()] + b"}"
        assert hashed == json.dumps(PAYLOAD, **CANONICAL).encode()
        assert stamp.group(1).decode() == stamp_checksum(PAYLOAD)["sha256"]
        assert decode_stamped(data) == json.loads(json.dumps(PAYLOAD))

    def test_a_held_stamp_is_replaced_not_repeated(self):
        fresh = encode_stamped(PAYLOAD)
        for held in (stamp_checksum(PAYLOAD), dict(PAYLOAD, sha256="x" * 64)):
            data = encode_stamped(held)
            assert data == fresh
            assert data.count(b'"sha256"') == 1

    def test_empty_payload(self):
        data = encode_stamped({})
        assert data == b'{"sha256":"%s"}' % (
            hashlib.sha256(b"{}").hexdigest().encode()
        )
        assert decode_stamped(data) == {}

    def test_fragments_must_match_items(self):
        with pytest.raises(ValueError, match="2 items but 1 fragments"):
            EncodedList([1, 2], ["1"])


class TestCheckpointerFiles:
    def test_file_written_the_old_way_still_loads(self, tmp_path):
        payload = json.loads(json.dumps(PAYLOAD))
        path = tmp_path / "ck.json"
        path.write_bytes(json.dumps(stamp_checksum(payload)).encode())
        assert Checkpointer(path).load() == payload

    def test_save_encodes_what_it_is_given_now(self, tmp_path):
        """No memo of the caller's dicts: a mutated state saves anew."""
        checkpointer = Checkpointer(tmp_path / "ck.json")
        documents = [{"doc_id": "a", "keys": [], "timestamp": 1}]
        state = {"offset": 1, "index": {"documents": documents}}
        checkpointer.save(state)
        documents[0]["timestamp"] = 2
        state["offset"] = 2
        checkpointer.save(state)
        loaded = checkpointer.load()
        assert loaded["index"]["documents"][0]["timestamp"] == 2
        assert loaded == dict(json.loads(json.dumps(state)), version=3)

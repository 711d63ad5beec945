"""The car-rental call graph as a stream: funnel counts and checkpoint size.

Runs the real call-center stage graph (record linking, pattern
annotation, derivation, indexing) over a small seeded car-rental
corpus as a stream, then checkpoints the final state and resumes a
fresh consumer from it.  The counts are exact; the checkpoint's byte
size carries the report's float wall time, so it is checked within 5%.
"""

import pytest

from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.engine import Document
from repro.mining.index import field_key
from repro.mining.stage import ConceptIndexStage
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
)
from repro.synth.carrental import CarRentalConfig, generate_car_rental

#: 6 agents x 3 days x 4 calls = 72 calls.
CONFIG = CarRentalConfig(
    n_agents=6, n_days=3, calls_per_agent_per_day=4, n_customers=60,
    seed=17,
)
BATCH_DOCS = 32

#: Checkpoint size of the final state, in bytes, and its tolerance.
CHECKPOINT_BYTES = 30260
CHECKPOINT_TOL_REL = 0.05


def _build_consumer(corpus, checkpointer):
    """Stream consumer over the corpus's call stage graph."""
    system = BIVoCSystem(BIVoCConfig(use_asr=False, link_mode="content"))
    stages = system.build_call_stages(
        corpus, index_stage=ConceptIndexStage(on_duplicate="replace")
    )
    arrivals = sorted(corpus.transcripts, key=lambda t: (t.day, t.call_id))
    source = MemorySource(
        (
            transcript.day,
            Document(
                doc_id=transcript.call_id,
                channel="call",
                text=transcript.text,
                artifacts={"transcript": transcript},
            ),
        )
        for transcript in arrivals
    )
    window = WindowedAnalytics(
        3,
        assoc_specs=[AssocSpec(("field", "city"), ("field", "car_type"))],
        relfreq_specs=[
            RelFreqSpec(
                (field_key("detected_intent", "strong"),),
                ("field", "call_type"),
            )
        ],
    )
    return StreamConsumer(
        source,
        stages,
        window=window,
        checkpointer=checkpointer,
        batch_docs=BATCH_DOCS,
        checkpoint_interval=10 ** 9,  # checkpointed once, explicitly
    )


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """(corpus, report, consumer, resumed consumer, checkpoint bytes)."""
    corpus = generate_car_rental(CONFIG)
    path = tmp_path_factory.mktemp("carrental-stream") / "stream.ck.json"
    checkpointer = Checkpointer(path)
    consumer = _build_consumer(corpus, checkpointer)
    report = consumer.run(checkpoint_at_end=False)
    consumer.checkpoint()
    size = path.stat().st_size
    resumed = _build_consumer(corpus, checkpointer)
    assert resumed.restore()
    return corpus, report, consumer, resumed, size


def test_funnel_counts(streamed):
    corpus, report, _, _, _ = streamed
    assert len(corpus.transcripts) == 72
    assert report.processed == len(corpus.transcripts)
    assert report.batches == 3
    assert report.discarded == 0


def test_checkpoint_bytes_within_tolerance(streamed):
    _, _, _, _, size = streamed
    assert abs(size - CHECKPOINT_BYTES) <= (
        CHECKPOINT_TOL_REL * CHECKPOINT_BYTES
    )


def test_resume_restores_the_whole_index(streamed):
    _, _, consumer, resumed, _ = streamed
    assert len(resumed.index) == len(consumer.index)

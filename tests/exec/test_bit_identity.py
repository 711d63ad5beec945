"""Every backend is ``==`` to serial: analytics, pipeline, stream, serve.

The acceptance bar of the execution-backend layer, on both synthetic
corpora: for every backend kind, the mining analytics (over indexes
ingested in 1, 2, 4 and 7 hash-partition orders), the full pipeline
(1 and 4 workers) and served query results (over streams re-delivering
1, 2, 4 or 7 documents) are *bit-identical* (``==``, never
approximate) to the serial run.  The analytics and the pipeline also
run the process backend from a worker thread (``tests.exec.drivers``).
A stream crashed after 1, 4 or 7 commits and then resumed ends ``==``
to the uninterrupted stream, and its analytics ``==`` the batch
pipeline's under every driver; the consumer itself runs inline on the
driver's thread.  The randomized sweep over the same invariants lives
in ``tests/prop``; these are the pinned, named configurations.
"""

import pytest

from repro.annotation.dictionary import DictionaryEntry, DomainDictionary
from repro.annotation.domains import CHURN_DRIVER_SURFACES
from repro.annotation.matcher import AnnotationEngine
from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem, call_documents
from repro.engine import PipelineRunner
from repro.exec import BACKEND_KINDS, make_backend
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.prop import PropCase
from repro.prop.harness import (
    run_analytics,
    run_batch,
    run_stream_reference,
    run_stream_resumed,
)
from repro.serve import QueryEngine, QuerySpec, plan_query
from repro.serve.wire import result_to_wire
from repro.stream import EpochStore
from repro.stream.checkpoint import index_from_state, index_to_state
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom

from tests.exec.drivers import DRIVERS, drive
from tests.mining.test_algebra_equivalence import reshard
from tests.serve.corpus import make_consumer, make_pairs

SHARD_COUNTS = [1, 2, 4, 7]
WORKERS = 2


@pytest.fixture(scope="module")
def car_corpus():
    """One small car-rental corpus shared by every backend run."""
    return generate_car_rental(
        CarRentalConfig(
            n_agents=5,
            n_days=3,
            calls_per_agent_per_day=3,
            n_customers=50,
            seed=13,
        )
    )


@pytest.fixture(scope="module")
def car_index(car_corpus):
    """Concept index from the serial full-pipeline run."""
    system = BIVoCSystem(
        BIVoCConfig(use_asr=False, link_mode="content")
    )
    return system.process_call_center(car_corpus).index


@pytest.fixture(scope="module")
def telecom_messages():
    """A bounded slice of the telecom corpus (pipeline-cheap)."""
    corpus = generate_telecom(
        TelecomConfig(scale=0.01, n_customers=150, seed=13)
    )
    return corpus.messages[:400]


@pytest.fixture(scope="module")
def telecom_index(telecom_messages):
    """Churn-driver index built directly from the message slice."""
    dictionary = DomainDictionary()
    for driver, surfaces in CHURN_DRIVER_SURFACES.items():
        for surface in surfaces:
            dictionary.add(
                DictionaryEntry(surface, driver, "churn driver")
            )
    engine = AnnotationEngine(dictionary=dictionary)
    index = ConceptIndex()
    for message in telecom_messages:
        index.add(
            message.message_id,
            annotated=engine.annotate(message.clean_text),
            fields={"channel": message.channel},
            timestamp=message.month,
        )
    return index


@pytest.fixture(
    scope="module", params=["carrental", "telecom"]
)
def corpus_pair(request, car_index, telecom_index):
    """(single index, analytics spec) per corpus."""
    if request.param == "carrental":
        return car_index, {
            "focus": [("field", "call_type", "unbooked")],
            "candidates": ("concept", "place"),
            "rows": ("concept", "place"),
            "cols": ("concept", "vehicle type"),
            "trend_dim": ("concept", "vehicle type"),
            "cube_dims": [
                ("concept", "place"), ("field", "call_type"),
            ],
        }
    return telecom_index, {
        "focus": [("field", "channel", "email")],
        "candidates": ("concept", "churn driver"),
        "rows": ("concept", "churn driver"),
        "cols": ("field", "channel"),
        "trend_dim": ("concept", "churn driver"),
        "cube_dims": [
            ("concept", "churn driver"), ("field", "channel"),
        ],
    }


def _analytics(index, spec):
    """Every mining analytic as comparable values."""
    table = associate(index, spec["rows"], spec["cols"])
    cube = concept_cube(index, spec["cube_dims"])
    return {
        "relfreq": relative_frequency(
            index, spec["focus"], spec["candidates"]
        ),
        "assoc_cells": table.cells(),
        "assoc_shares": table.row_share_matrix(),
        "trends": [
            trend_series(index, key)
            for key in index.keys_of_dimension(spec["trend_dim"])
        ],
        "emerging": emerging_concepts(
            index, spec["trend_dim"], min_total=1
        ),
        "cube_cells": cube.cells(include_empty_coordinates=True),
    }


class TestAnalyticsBitIdentity:
    """All analytics x partition orders {1,2,4,7} x drivers."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_backend_equals_serial(self, corpus_pair, shards, driver):
        # Each backend task computes every analytic over its own copy
        # of the reordered index (a pickled one on processes).
        single, spec = corpus_pair
        expected = _analytics(single, spec)
        reordered = reshard(single, shards)

        def fan_out(kind):
            with make_backend(kind, workers=WORKERS) as backend:
                return backend.map(
                    _analytics, [reordered] * WORKERS, [spec] * WORKERS
                )

        assert drive(driver, fan_out) == [expected] * WORKERS


class TestPipelineBitIdentity:
    """The full call-center stage graph per driver equals serial."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_carrental_pipeline(self, car_corpus, car_index, driver):
        config = BIVoCConfig(use_asr=False, link_mode="content")

        def run(backend=None):
            stages = BIVoCSystem(config).build_call_stages(car_corpus)
            result = PipelineRunner(
                stages, batch_size=8, backend=backend
            ).run(call_documents(car_corpus))
            return result, index_to_state(stages[-1].index)

        def fan_out(kind):
            with make_backend(kind, workers=WORKERS) as backend:
                return run(backend)

        serial, serial_index = run()
        result, index = drive(driver, fan_out)
        # The process kinds engage the pool; serial runs inline.
        assert any(s.parallel for s in result.report.stages) == (
            driver != "serial"
        )
        assert result.documents == serial.documents
        assert index == serial_index == index_to_state(car_index)

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_telecom_stage_graph(self, telecom_messages, driver, workers):
        from repro.cleaning.stage import CleaningStage
        from repro.core.usecases.churn import (
            StreamAnnotateStage,
            churn_driver_engine,
        )
        from repro.engine import Document
        from repro.mining.stage import ConceptIndexStage

        def build_and_run(backend=None):
            stages = [
                CleaningStage(),
                StreamAnnotateStage(churn_driver_engine()),
                ConceptIndexStage(on_duplicate="replace"),
            ]
            documents = [
                Document(
                    doc_id=message.message_id,
                    channel=message.channel,
                    text=message.raw_text,
                    artifacts={
                        "index_fields": {"channel": message.channel},
                        "timestamp": message.month,
                    },
                )
                for message in telecom_messages
            ]
            PipelineRunner(
                stages, batch_size=32, backend=backend
            ).run(documents)
            return index_to_state(stages[-1].index)

        def run(kind):
            with make_backend(kind, workers=workers) as backend:
                return build_and_run(backend=backend)

        expected = build_and_run()
        assert drive(driver, run) == expected


class TestStreamBitIdentity:
    """Crash/resume under each driver converges to the uninterrupted
    run and to the batch pipeline on that driver's backend."""

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("crash_after", [1, 4, 7])
    def test_crash_resume_equals_uninterrupted(
        self, tmp_path, driver, crash_after
    ):
        case = PropCase(
            seed=99, n_docs=60, channels=("call", "email"),
            batch_size=8, workers=WORKERS,
            backend="serial", batch_docs=7, checkpoint_interval=2,
            crash_after=crash_after,
        )

        def run(kind):
            return (
                run_stream_reference(case),
                run_stream_resumed(case, str(tmp_path)),
                run_batch(case, kind),
            )

        expected, resumed, batch = drive(driver, run)
        assert resumed == expected
        assert run_analytics(case, index_from_state(resumed)) == batch


SERVE_QUERIES = [
    {"kind": "assoc2d", "rows": ["field", "city"],
     "cols": ["field", "car"]},
    {"kind": "relfreq", "focus": [["field", "city", "boston"]],
     "candidates": ["field", "car"]},
    {"kind": "trends", "key": ["field", "car", "suv"]},
    {"kind": "cube",
     "dimensions": [["field", "city"], ["field", "channel"]]},
]


class TestServedQueryBitIdentity:
    """Query plans run on each backend equal the serial engine's answers."""

    @pytest.fixture(scope="class", params=SHARD_COUNTS)
    def epochs(self, request):
        store = EpochStore(history=None)
        consumer = make_consumer(
            make_pairs(redeliver=request.param), epochs=store
        )
        consumer.run()
        return store

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_backend_engine_equals_serial_engine(self, epochs, kind):
        serial = QueryEngine(epochs)
        snapshot = epochs.current()
        specs = [QuerySpec.parse(payload) for payload in SERVE_QUERIES]
        with make_backend(kind, workers=WORKERS) as backend:
            planned = backend.map(
                plan_query, specs, [snapshot.index] * len(specs)
            )
        for payload, spec, value in zip(SERVE_QUERIES, specs, planned):
            expected = serial.query(payload)
            assert expected.epoch == snapshot.epoch
            assert result_to_wire(spec.kind, value) == result_to_wire(
                expected.kind, expected.value
            )

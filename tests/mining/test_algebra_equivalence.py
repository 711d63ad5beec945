"""Analytics depend on the indexed documents, never on their order.

Every mining analytic counts over the index's document set, so an
index that received the same documents in another order gives
``==``-identical results.  The reordering used here ingests the
documents one hash partition after another — CRC-32 of the doc id
modulo 1, 2, 4 or 7 partitions (7 deliberately does not divide either
corpus evenly), the routing of the retired sharded layout — on both
synthetic corpora, and compares ``==`` on the result objects, never
approximately.  The same holds when several threads run the analytics
on one index at once, as ``bivoc serve``'s request threads do.
"""

import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.annotation.dictionary import DictionaryEntry, DomainDictionary
from repro.annotation.domains import CHURN_DRIVER_SURFACES
from repro.annotation.matcher import AnnotationEngine
from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom

SHARD_COUNTS = [1, 2, 4, 7]


def _partition(doc_id, n_shards):
    """Deterministic partition number of a document id."""
    return zlib.crc32(str(doc_id).encode("utf-8")) % n_shards


def reshard(single, n_shards):
    """A copy of ``single`` ingested one hash partition at a time."""
    sharded = ConceptIndex(keep_documents=single.keeps_documents)
    ordered = sorted(
        single.document_ids,
        key=lambda doc_id: _partition(doc_id, n_shards),
    )
    for doc_id in ordered:
        sharded.add_keys(
            doc_id,
            single.keys_of(doc_id),
            timestamp=single.timestamp_of(doc_id),
            text=(
                single.text_of(doc_id)
                if single.keeps_documents else None
            ),
        )
    return sharded


@pytest.fixture(scope="module")
def car_index():
    """Concept index from the full pipeline on a small car corpus."""
    corpus = generate_car_rental(
        CarRentalConfig(
            n_agents=8,
            n_days=3,
            calls_per_agent_per_day=5,
            n_customers=80,
            seed=9,
        )
    )
    system = BIVoCSystem(
        BIVoCConfig(use_asr=False, link_mode="content")
    )
    return system.process_call_center(corpus).index


@pytest.fixture(scope="module")
def telecom_index():
    """Churn-driver index over a small telecom message corpus."""
    corpus = generate_telecom(
        TelecomConfig(scale=0.01, n_customers=500, seed=7)
    )
    dictionary = DomainDictionary()
    for driver, surfaces in CHURN_DRIVER_SURFACES.items():
        for surface in surfaces:
            dictionary.add(
                DictionaryEntry(surface, driver, "churn driver")
            )
    engine = AnnotationEngine(dictionary=dictionary)
    index = ConceptIndex()
    for message in corpus.messages:
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


@pytest.fixture(params=SHARD_COUNTS)
def layout(request, corpus_pair):
    """(arrival-order index, partition-order copy, spec) per count."""
    single, spec = corpus_pair
    return single, reshard(single, request.param), spec


def assert_tables_identical(expected, actual):
    """Two association tables carry identical cells and shares."""
    assert actual.row_values == expected.row_values
    assert actual.col_values == expected.col_values
    assert actual.cells() == expected.cells()
    assert actual.row_share_matrix() == expected.row_share_matrix()


class TestShardedEquivalence:
    def test_index_reads_identical(self, layout):
        single, sharded, _ = layout
        assert len(sharded) == len(single)
        assert sorted(sharded.document_ids, key=str) == sorted(
            single.document_ids, key=str
        )
        for doc_id in single.document_ids:
            assert sharded.keys_of(doc_id) == single.keys_of(doc_id)
            assert sharded.timestamp_of(doc_id) == (
                single.timestamp_of(doc_id)
            )
        assert sharded.concept_keys() == single.concept_keys()

    def test_relative_frequency(self, layout):
        single, sharded, spec = layout
        expected = relative_frequency(
            single, spec["focus"], spec["candidates"]
        )
        assert relative_frequency(
            sharded, spec["focus"], spec["candidates"]
        ) == expected

    def test_associate(self, layout):
        single, sharded, spec = layout
        expected = associate(single, spec["rows"], spec["cols"])
        actual = associate(sharded, spec["rows"], spec["cols"])
        assert_tables_identical(expected, actual)

    def test_trend_series(self, layout):
        single, sharded, spec = layout
        for key in single.keys_of_dimension(spec["trend_dim"]):
            assert trend_series(sharded, key) == (
                trend_series(single, key)
            )

    def test_emerging_concepts(self, layout):
        single, sharded, spec = layout
        for min_total in (0, 1, 3):
            assert emerging_concepts(
                sharded, spec["trend_dim"], min_total=min_total
            ) == emerging_concepts(
                single, spec["trend_dim"], min_total=min_total
            )

    def test_concept_cube(self, layout):
        single, sharded, spec = layout
        expected = concept_cube(single, spec["cube_dims"])
        actual = concept_cube(sharded, spec["cube_dims"])
        assert actual.total == expected.total
        assert actual.cells(include_empty_coordinates=True) == (
            expected.cells(include_empty_coordinates=True)
        )
        first = spec["cube_dims"][0]
        assert actual.margin(first) == expected.margin(first)


class TestPooledEquivalence:
    def test_pool_matches_serial(self, corpus_pair):
        # Every count pass is a pure read, so analytics run from four
        # threads at once over one index equal the serial results.
        single, spec = corpus_pair

        def analytics(_):
            return (
                relative_frequency(
                    single, spec["focus"], spec["candidates"]
                ),
                emerging_concepts(single, spec["trend_dim"]),
                associate(single, spec["rows"], spec["cols"]),
            )

        serial = analytics(None)
        with ThreadPoolExecutor(4) as pool:
            pooled = list(pool.map(analytics, range(8)))
        for relfreq, emerging, table in pooled:
            assert relfreq == serial[0]
            assert emerging == serial[1]
            assert_tables_identical(serial[2], table)

"""Every analytic against the frozen partial/finalize aggregates.

The oracle: each mining analytic — :func:`relative_frequency`,
:func:`associate` (Wilson and Wald), :func:`trend_series` (observed and
forced buckets), :func:`emerging_concepts` (``min_total`` edges) and
:func:`concept_cube` (cells, slices, roll-ups and margins) — returns a
result ``==`` the frozen aggregates of :mod:`tests.mining.reference`.
The indexes are the car-rental insight study's and the telecom stream
graph's at seeds 1-3, each also as an epoch snapshot, plus a hand-built
index whose documents miss dimensions, carry several values of one
dimension or no timestamp, queried over a dimension nobody carries.
"""

from itertools import combinations

import pytest

from repro.annotation.concepts import AnnotatedDocument, Concept
from repro.cleaning.stage import CleaningStage
from repro.core.usecases.churn import StreamAnnotateStage, churn_driver_engine
from repro.engine import Document, PipelineRunner
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.stage import ConceptIndexStage
from repro.mining.trends import emerging_concepts, trend_series
from repro.stream.epoch import EpochStore
from repro.synth.telecom import TelecomConfig, generate_telecom
from tests.mining.reference import (
    ReferenceAssociationAggregate,
    ReferenceConceptCubeAggregate,
    ReferenceEmergingConceptsAggregate,
    ReferenceRelativeFrequencyAggregate,
    ReferenceTrendSeriesAggregate,
    reference_compute,
)
from tests.mining.test_assoc_finalize import callcenter_study

SEEDS = (1, 2, 3)
METHODS = ("wilson", "normal")

#: A dimension no document carries.
EMPTY_DIMENSION = ("concept", "nothing")


def telecom_index(seed):
    """The telecom stream graph's index, with month timestamps.

    Every seventh message is indexed without a timestamp.
    """
    corpus = generate_telecom(
        TelecomConfig(scale=0.002, n_customers=300, seed=seed)
    )
    documents = [
        Document(
            doc_id=message.message_id,
            channel=message.channel,
            text=message.raw_text,
            artifacts={
                "index_fields": {"channel": message.channel},
                "timestamp": None if position % 7 == 0 else message.month,
            },
        )
        for position, message in enumerate(corpus.messages)
    ]
    stages = [
        CleaningStage(),
        StreamAnnotateStage(churn_driver_engine()),
        ConceptIndexStage(),
    ]
    with PipelineRunner(stages) as runner:
        runner.run(documents)
    return stages[-1].index


def edge_index():
    """Documents missing dimensions, multi-valued, and untimestamped."""
    rows = [
        (["suv"], "seattle", "reservation", 0),
        (["suv"], "seattle", "reservation", 2),
        (["suv", "luxury"], "seattle", "unbooked", 2),
        (["luxury"], None, "unbooked", None),
        ([], "boston", "reservation", 5),
        (["compact"], "boston", None, 5),
        (["suv"], None, "reservation", 3),
    ]
    index = ConceptIndex()
    for doc_id, (vehicles, place, outcome, day) in enumerate(rows):
        concepts = [
            Concept(vehicle, "vehicle", vehicle, 0, 1)
            for vehicle in vehicles
        ]
        if place is not None:
            concepts.append(Concept(place, "place", place, 1, 2))
        fields = {} if outcome is None else {"outcome": outcome}
        index.add(
            doc_id,
            annotated=AnnotatedDocument(
                doc_id=doc_id, text="", tokens=[], concepts=concepts
            ),
            fields=fields,
            timestamp=day,
        )
    return index


def snapshot(index):
    """``index`` as a serving layer reads it: a published epoch."""
    return EpochStore().publish(index, epoch=1).index


@pytest.fixture(scope="module")
def indexes():
    """``{name: index}`` over every oracle corpus and its snapshot."""
    found = {"edge": edge_index()}
    for seed in SEEDS:
        found[f"callcenter-{seed}"] = callcenter_study(seed).analysis.index
        found[f"telecom-{seed}"] = telecom_index(seed)
    for name in list(found):
        found[f"{name}-snapshot"] = snapshot(found[name])
    return found


def dimensions_of(index):
    """Every dimension the index carries, plus one it does not."""
    return sorted({key[:2] for key in index.concept_keys()}) + [
        EMPTY_DIMENSION
    ]


def each_index(indexes):
    for name, index in indexes.items():
        yield name, index, dimensions_of(index)


class TestRelativeFrequency:
    def test_equals_reference(self, indexes):
        for name, index, dimensions in each_index(indexes):
            keys = sorted(index.concept_keys())
            focuses = [[key] for key in keys[::3]] + [keys[:2]]
            focuses.append([EMPTY_DIMENSION + ("none",)])
            for focus in focuses:
                for dimension in dimensions:
                    for min_focus_count in (0, 1, 2):
                        args = (focus, dimension, min_focus_count)
                        assert relative_frequency(index, *args) == (
                            reference_compute(
                                ReferenceRelativeFrequencyAggregate(*args),
                                index,
                            )
                        ), (name, args)

    def test_empty_focus_rejected(self, indexes):
        with pytest.raises(ValueError, match="focus"):
            relative_frequency(indexes["edge"], [], EMPTY_DIMENSION)


class TestAssociate:
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_reference(self, indexes, method):
        for name, index, dimensions in each_index(indexes):
            for rows, cols in combinations(dimensions, 2):
                for values in (
                    {},
                    {"row_values": ["nowhere"]
                     + index.values_of_dimension(rows)},
                    {"col_values": index.values_of_dimension(cols)[::-1]},
                ):
                    kwargs = dict(values, interval_method=method)
                    expected = reference_compute(
                        ReferenceAssociationAggregate(rows, cols, **kwargs),
                        index,
                    )
                    actual = associate(index, rows, cols, **kwargs)
                    assert actual == expected, (name, rows, cols, kwargs)
                    assert actual.cells() == expected.cells()

    def test_confidences_equal_reference(self, indexes):
        index = indexes["callcenter-1"]
        rows, cols = ("concept", "place"), ("concept", "vehicle type")
        for confidence in (0.5, 0.8, 0.9, 0.99):
            assert associate(
                index, rows, cols, confidence=confidence
            ) == reference_compute(
                ReferenceAssociationAggregate(
                    rows, cols, confidence=confidence
                ),
                index,
            )

    def test_empty_index_raises_like_reference(self):
        rows, cols = ("concept", "place"), ("field", "outcome")
        with pytest.raises(ValueError, match="empty") as expected:
            reference_compute(
                ReferenceAssociationAggregate(rows, cols), ConceptIndex()
            )
        with pytest.raises(ValueError, match="empty") as actual:
            associate(ConceptIndex(), rows, cols)
        assert str(actual.value) == str(expected.value)


class TestTrends:
    def test_trend_series_equals_reference(self, indexes):
        for name, index, dimensions in each_index(indexes):
            keys = sorted(index.concept_keys()) + [EMPTY_DIMENSION + ("x",)]
            for key in keys:
                for buckets in (None, range(-1, 7), [5, 0, 2]):
                    assert trend_series(index, key, buckets) == (
                        reference_compute(
                            ReferenceTrendSeriesAggregate(key, buckets),
                            index,
                        )
                    ), (name, key, buckets)

    def test_emerging_concepts_equals_reference(self, indexes):
        for name, index, dimensions in each_index(indexes):
            for dimension in dimensions:
                for buckets in (None, range(0, 6)):
                    for min_total in (0, 1, 3, 10 ** 6):
                        args = (dimension, buckets, min_total)
                        assert emerging_concepts(index, *args) == (
                            reference_compute(
                                ReferenceEmergingConceptsAggregate(*args),
                                index,
                            )
                        ), (name, args)


class TestConceptCube:
    def test_equals_reference(self, indexes):
        for name, index, dimensions in each_index(indexes):
            layouts = [[dimension] for dimension in dimensions]
            layouts += [list(pair) for pair in combinations(dimensions, 2)]
            layouts.append(dimensions[:3])
            for layout in layouts:
                cube = concept_cube(index, layout)
                expected = reference_compute(
                    ReferenceConceptCubeAggregate(layout), index
                )
                assert cube == expected, (name, layout)
                assert cube.total == expected.total
                assert cube.cells(include_empty_coordinates=True) == (
                    expected.cells(include_empty_coordinates=True)
                )
                assert cube.cells() == expected.cells()
                first = layout[0]
                values = {
                    cell.coordinates[0]
                    for cell in cube.cells(include_empty_coordinates=True)
                }
                for value in values:
                    assert cube.slice(first, value) == (
                        expected.slice(first, value)
                    )
                for size in range(1, len(layout) + 1):
                    for kept in combinations(layout, size):
                        assert cube.rollup(kept) == expected.rollup(kept)
                assert cube.margin(first) == expected.margin(first)

    def test_empty_dimensions_rejected(self, indexes):
        with pytest.raises(ValueError, match="dimension"):
            concept_cube(indexes["edge"], [])

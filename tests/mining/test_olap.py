"""Tests for the OLAP-style concept cube."""

import pytest

from repro.annotation.concepts import AnnotatedDocument, Concept
from repro.mining.index import ConceptIndex
from repro.mining.olap import concept_cube


@pytest.fixture
def index():
    index = ConceptIndex()
    rows = [
        ("seattle", "suv", "reservation"),
        ("seattle", "suv", "reservation"),
        ("seattle", "luxury", "unbooked"),
        ("boston", "suv", "unbooked"),
        ("boston", "full-size", "reservation"),
        (None, "suv", "reservation"),  # no place mentioned
    ]
    for doc_id, (place, vehicle, outcome) in enumerate(rows):
        concepts = []
        if place is not None:
            concepts.append(Concept(place, "place", place, 0, 1))
        concepts.append(Concept(vehicle, "vehicle", vehicle, 1, 2))
        annotated = AnnotatedDocument(
            doc_id=doc_id, text="", tokens=[], concepts=concepts
        )
        index.add(doc_id, annotated=annotated,
                  fields={"outcome": outcome})
    return index


DIMS = [("concept", "place"), ("concept", "vehicle"), ("field", "outcome")]


class TestConceptCube:
    def test_total_conserved(self, index):
        cube = concept_cube(index, DIMS)
        assert cube.total == 6

    def test_full_coordinates_cells(self, index):
        cube = concept_cube(index, DIMS)
        cells = cube.cells()
        top = cells[0]
        assert top.coordinates == ("seattle", "suv", "reservation")
        assert top.count == 2

    def test_missing_dimension_bucketed_as_none(self, index):
        cube = concept_cube(index, DIMS)
        with_empty = cube.cells(include_empty_coordinates=True)
        none_cells = [
            c for c in with_empty if c.coordinates[0] is None
        ]
        assert sum(c.count for c in none_cells) == 1

    def test_slice(self, index):
        cube = concept_cube(index, DIMS)
        seattle = cube.slice(("concept", "place"), "seattle")
        assert seattle[("suv", "reservation")] == 2
        assert sum(seattle.values()) == 3

    def test_slice_unknown_dimension(self, index):
        cube = concept_cube(index, DIMS)
        with pytest.raises(KeyError):
            cube.slice(("field", "nothing"), "x")

    def test_rollup_matches_index_counts(self, index):
        from repro.mining.index import field_key

        cube = concept_cube(index, DIMS)
        outcome_margin = cube.margin(("field", "outcome"))
        assert outcome_margin["reservation"] == index.count(
            field_key("outcome", "reservation")
        )

    def test_rollup_two_dimensions(self, index):
        cube = concept_cube(index, DIMS)
        rolled = cube.rollup([("concept", "place"), ("field", "outcome")])
        assert rolled[("seattle", "reservation")] == 2

    def test_rollup_conserves_total(self, index):
        cube = concept_cube(index, DIMS)
        rolled = cube.rollup([("concept", "vehicle")])
        assert sum(rolled.values()) == cube.total

    def test_dice(self, index):
        cube = concept_cube(index, DIMS)
        reservations = cube.dice(
            lambda coords: coords[2] == "reservation"
        )
        assert sum(reservations.values()) == 4

    def test_empty_dimensions_rejected(self, index):
        with pytest.raises(ValueError):
            concept_cube(index, [])

    def test_multivalued_documents_bucketed(self):
        index = ConceptIndex()
        concepts = [
            Concept("suv", "vehicle", "suv", 0, 1),
            Concept("luxury", "vehicle", "luxury", 1, 2),
        ]
        index.add(
            0,
            annotated=AnnotatedDocument(
                doc_id=0, text="", tokens=[], concepts=concepts
            ),
        )
        cube = concept_cube(index, [("concept", "vehicle")])
        cells = cube.cells()
        assert cells[0].coordinates == ("<multi>",)

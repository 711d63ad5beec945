"""Tests for 2-D association analysis, trends and report rendering."""

import pytest

from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.reports import (
    outcome_percentage_table,
    render_association,
    render_relevancy,
)
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import trend_series, trend_slope


@pytest.fixture
def index():
    """40 calls with a strong seattle<->suv association planted."""
    index = ConceptIndex()
    doc_id = 0

    def add(place, vehicle, outcome, count, start_ts=0):
        nonlocal doc_id
        for i in range(count):
            index.add(
                doc_id,
                fields={"place": place, "vehicle": vehicle,
                        "outcome": outcome},
                timestamp=start_ts + (i % 4),
            )
            doc_id += 1

    add("seattle", "suv", "reservation", 12)
    add("seattle", "luxury", "unbooked", 2)
    add("new york", "luxury", "reservation", 10)
    add("new york", "suv", "unbooked", 2)
    add("boston", "full-size", "reservation", 8)
    add("boston", "suv", "unbooked", 6)
    return index


class TestAssociate:
    def test_marginals_and_counts(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        cell = table.cell("seattle", "suv")
        assert cell.count == 12
        assert cell.row_total == 14
        assert cell.col_total == 20
        assert cell.grand_total == 40

    def test_planted_association_is_strongest(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        strongest = table.strongest(2, min_count=3)
        pairs = {(c.row_value, c.col_value) for c in strongest}
        assert ("new york", "luxury") in pairs
        # Seattle-SUV is also in the top cells.
        top5 = {
            (c.row_value, c.col_value) for c in table.strongest(5,
                                                                min_count=3)
        }
        assert ("seattle", "suv") in top5

    def test_strength_below_point_lift(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        for cell in table.cells():
            assert cell.strength <= cell.point_lift + 1e-9

    def test_sparse_cell_downweighted(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        sparse = table.cell("seattle", "luxury")  # count 2
        dense = table.cell("seattle", "suv")  # count 12
        assert sparse.strength < dense.strength

    def test_drilldown_documents(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        docs = table.documents("seattle", "suv")
        assert len(docs) == 12
        for doc_id in docs:
            keys = index.keys_of(doc_id)
            assert field_key("place", "seattle") in keys
            assert field_key("vehicle", "suv") in keys

    def test_row_share_matrix(self, index):
        table = associate(index, ("field", "place"), ("field", "outcome"))
        shares = table.row_share_matrix()
        assert shares["seattle"]["reservation"] == pytest.approx(12 / 14)

    def test_missing_cell_raises(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        with pytest.raises(KeyError):
            table.cell("mars", "suv")

    def test_explicit_value_lists(self, index):
        table = associate(
            index,
            ("field", "place"),
            ("field", "vehicle"),
            row_values=["seattle"],
            col_values=["suv", "luxury"],
        )
        assert table.row_values == ["seattle"]
        assert len(table.cells()) == 2

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            associate(ConceptIndex(), ("field", "a"), ("field", "b"))

    @pytest.mark.parametrize("values", [
        {"row_values": ["boston", "boston"]},
        {"col_values": ["suv", "luxury", "suv"]},
    ])
    def test_duplicate_values_rejected(self, index, values):
        # A repeated value would score its cells twice, and strongest()
        # could then rank one cell twice.
        with pytest.raises(ValueError, match="twice"):
            associate(
                index, ("field", "place"), ("field", "vehicle"), **values
            )

    def test_normal_interval_method(self, index):
        table = associate(
            index,
            ("field", "place"),
            ("field", "vehicle"),
            interval_method="normal",
        )
        assert table.cell("seattle", "suv").strength > 0


class TestTrends:
    def test_series_counts_by_bucket(self, index):
        series = trend_series(index, field_key("place", "seattle"))
        assert sum(count for _, count in series) == 14

    def test_series_with_forced_buckets(self, index):
        series = trend_series(
            index, field_key("place", "seattle"), buckets=[0, 1, 2, 3, 9]
        )
        assert series[-1] == (9, 0)

    def test_slope_rising(self):
        assert trend_slope([(0, 1), (1, 3), (2, 5)]) == pytest.approx(2.0)

    def test_slope_flat(self):
        assert trend_slope([(0, 2), (1, 2), (2, 2)]) == 0.0

    def test_slope_short_series(self):
        assert trend_slope([(0, 5)]) == 0.0

    def test_no_timestamp_docs_skipped(self):
        index = ConceptIndex()
        index.add(0, fields={"a": "x"})
        assert trend_series(index, field_key("a", "x")) == []


class TestReports:
    def test_render_association_counts(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        text = render_association(table, title="Table II")
        assert "Table II" in text
        assert "seattle" in text
        assert "12" in text

    def test_render_association_strength(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        text = render_association(table, value="strength")
        assert "seattle" in text

    def test_render_association_invalid_value(self, index):
        table = associate(index, ("field", "place"), ("field", "vehicle"))
        with pytest.raises(ValueError):
            render_association(table, value="banana")

    def test_outcome_percentage_rows_sum_to_100(self, index):
        table = associate(index, ("field", "place"), ("field", "outcome"))
        text = outcome_percentage_table(
            table, col_order=["reservation", "unbooked"]
        )
        assert "86%" in text  # seattle 12/14

    def test_render_relevancy(self, index):
        results = relative_frequency(
            index,
            [field_key("place", "seattle")],
            ("field", "vehicle"),
        )
        text = render_relevancy(results, title="relevancy")
        assert "relevancy" in text
        assert "suv" in text

"""Edge cases of the relevancy analysis: empty focus, filters, ties."""

import pytest

from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.relfreq import relative_frequency


def build(index):
    """Eight documents; no document carries channel=fax."""
    rows = [
        (0, "suv", "email"),
        (1, "suv", "email"),
        (2, "luxury", "sms"),
        (3, "suv", "sms"),
        (4, "compact", "email"),
        (5, "luxury", "sms"),
        (6, "compact", "sms"),
        (7, "compact", "email"),
    ]
    for doc_id, vehicle, channel in rows:
        index.add_keys(
            doc_id,
            [
                concept_key("vehicle", vehicle),
                field_key("channel", channel),
            ],
        )
    return index


@pytest.fixture(params=[0, 3])
def index(request):
    """The eight documents, the first ``param`` re-delivered.

    A replace-path re-delivery moves a document to the end of the
    insertion order; no result below may depend on that order.
    """
    built = build(ConceptIndex())
    for doc_id in built.document_ids[:request.param]:
        built.add_keys(
            doc_id, built.keys_of(doc_id), on_duplicate="replace"
        )
    return built


class TestEmptyFocusSubset:
    def test_empty_focus_yields_no_results_by_default(self, index):
        # channel=fax matches nothing, so every candidate has
        # focus_count 0 and the default min_focus_count=1 drops all.
        results = relative_frequency(
            index, [field_key("channel", "fax")], ("concept", "vehicle")
        )
        assert results == []

    def test_empty_focus_with_zero_threshold(self, index):
        # With the filter off, every candidate surfaces with
        # focus_total == 0 and a well-defined zero relative frequency
        # (no ZeroDivisionError).
        results = relative_frequency(
            index,
            [field_key("channel", "fax")],
            ("concept", "vehicle"),
            min_focus_count=0,
        )
        assert len(results) == 3
        for result in results:
            assert result.focus_total == 0
            assert result.focus_count == 0
            assert result.focus_frequency == pytest.approx(0.0)
            assert result.relative_frequency == pytest.approx(0.0)

    def test_conjunction_can_empty_the_subset(self, index):
        # Two focus keys no document carries together.
        results = relative_frequency(
            index,
            [field_key("channel", "email"), field_key("channel", "sms")],
            ("concept", "vehicle"),
        )
        assert results == []

    def test_no_focus_keys_rejected(self, index):
        with pytest.raises(ValueError, match="at least one focus key"):
            relative_frequency(index, [], ("concept", "vehicle"))


class TestMinFocusCount:
    def test_threshold_filters_rare_candidates(self, index):
        focus = [field_key("channel", "email")]
        unfiltered = relative_frequency(
            index, focus, ("concept", "vehicle"), min_focus_count=1
        )
        assert {r.key[2] for r in unfiltered} == {"suv", "compact"}
        filtered = relative_frequency(
            index, focus, ("concept", "vehicle"), min_focus_count=2
        )
        assert {r.key[2] for r in filtered} == {"suv", "compact"}
        strict = relative_frequency(
            index, focus, ("concept", "vehicle"), min_focus_count=3
        )
        assert strict == []

    def test_filter_does_not_change_surviving_rows(self, index):
        focus = [field_key("channel", "email")]
        loose = relative_frequency(
            index, focus, ("concept", "vehicle"), min_focus_count=0
        )
        tight = relative_frequency(
            index, focus, ("concept", "vehicle"), min_focus_count=2
        )
        survivors = [r for r in loose if r.focus_count >= 2]
        assert tight == survivors


class TestTieOrdering:
    def test_ties_break_by_key_ascending(self, index):
        # suv and compact both appear 2/5 in the email subset against
        # identical overall counts: an exact relative-frequency tie.
        results = relative_frequency(
            index,
            [field_key("channel", "email")],
            ("concept", "vehicle"),
        )
        assert results[0].relative_frequency == pytest.approx(
            results[1].relative_frequency
        )
        assert [r.key[2] for r in results] == ["compact", "suv"]

    def test_order_is_deterministic_across_runs(self, index):
        focus = [field_key("channel", "sms")]
        first = relative_frequency(index, focus, ("concept", "vehicle"))
        for _ in range(3):
            assert relative_frequency(
                index, focus, ("concept", "vehicle")
            ) == first

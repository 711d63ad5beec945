"""QuerySpec parsing, canonicalization, and plan == batch identity."""

import pytest

from repro.mining.assoc2d import associate
from repro.mining.index import concept_key, field_key
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.serve import QueryError, QuerySpec, plan_query

from tests.serve.corpus import make_pairs, reference_index

PAIRS = make_pairs()
INDEX = reference_index(PAIRS, len(PAIRS) - 1)


class TestParsing:
    """Payload validation and error surfaces."""

    def test_unknown_kind_rejected(self):
        """A typo'd kind is a QueryError, not a silent default."""
        with pytest.raises(QueryError):
            QuerySpec.parse({"kind": "relfrequency"})

    def test_unknown_parameter_rejected(self):
        """Extra parameters never silently broaden a query."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "trends", "key": ["field", "city", "boston"],
                 "bucket": [0, 3]}
            )

    def test_unknown_filter_rejected(self):
        """Only the declared drill-down filters are accepted."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "cube",
                 "dimensions": [["field", "city"]],
                 "filters": {"region": "west"}}
            )

    def test_inexpressible_filter_rejected(self):
        """A filter the kind cannot lower raises instead of ignoring."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"],
                 "filters": {"channel": "email"}}
            )

    @pytest.mark.parametrize("confidence", [0, 1, 1.5, -0.2, True, "0.9"])
    def test_assoc2d_confidence_outside_unit_interval_rejected(
        self, confidence
    ):
        """At 0 the bound is the point lift; at 1 and past it NaN."""
        with pytest.raises(QueryError, match="confidence"):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"], "confidence": confidence}
            )

    def test_assoc2d_unknown_method_rejected_at_parse(self):
        """An unknown interval method never reaches the planner."""
        with pytest.raises(QueryError, match="bayes"):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"], "method": "bayes"}
            )

    def test_malformed_key_rejected(self):
        """Keys must be [kind, name, value] triples."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "trends", "key": ["city", "boston"]}
            )

    def test_bad_bucket_range_rejected(self):
        """The buckets filter must be an ordered [lo, hi] pair."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "trends",
                 "key": ["field", "city", "boston"],
                 "filters": {"buckets": [4, 1]}}
            )

    @pytest.mark.parametrize("kind", ["trends", "emerging"])
    @pytest.mark.parametrize("buckets", [
        [[1, 2]], ["1"], [None], [True, 2], [1.0, 2.0],
    ], ids=["nested-list", "string", "none", "bool", "float"])
    def test_bucket_list_entries_must_be_integers(self, kind, buckets):
        """Every forced bucket is an int: the spec hashes, labels are ints."""
        target = (
            {"key": ["field", "city", "boston"]} if kind == "trends"
            else {"dimension": ["field", "car"]}
        )
        with pytest.raises(QueryError, match="bucket must be an integer"):
            QuerySpec.parse({"kind": kind, "buckets": buckets, **target})

    def test_cube_slice_and_rollup_exclusive(self):
        """At most one view operation per cube query."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "cube",
                 "dimensions": [["field", "city"], ["field", "car"]],
                 "slice": [["field", "city"], "boston"],
                 "rollup": [["field", "car"]]}
            )

    def test_cube_slice_must_name_a_cube_dimension(self):
        """Slicing on an absent dimension is refused."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "cube",
                 "dimensions": [["field", "city"]],
                 "slice": [["field", "car"], "suv"]}
            )

    def test_relfreq_needs_focus_and_candidates(self):
        """Empty focus or missing candidates is refused."""
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "relfreq", "candidates": ["field", "car"]}
            )
        with pytest.raises(QueryError):
            QuerySpec.parse(
                {"kind": "relfreq",
                 "focus": [["field", "city", "boston"]]}
            )


class TestListParameters:
    """A list-valued parameter never reads a string as its letters."""

    @pytest.mark.parametrize("payload", [
        {"kind": "assoc2d", "rows": ["field", "city"],
         "cols": ["field", "car"], "row_values": "boston"},
        {"kind": "assoc2d", "rows": ["field", "city"],
         "cols": ["field", "car"], "col_values": "suv"},
        {"kind": "relfreq", "focus": "cat",
         "candidates": ["field", "car"]},
        {"kind": "cube", "dimensions": "ab"},
        {"kind": "cube", "dimensions": [["field", "city"]],
         "rollup": "ab"},
        {"kind": "drilldown", "keys": "abc"},
        {"kind": "trends", "key": ["field", "car", "suv"],
         "buckets": "0123"},
        {"kind": "trends", "key": "abc"},
        {"kind": "emerging", "dimension": "ab"},
    ], ids=["row_values", "col_values", "focus", "dimensions", "rollup",
            "keys", "buckets", "key", "dimension"])
    def test_bare_string_rejected(self, payload):
        with pytest.raises(QueryError, match="must be a list"):
            QuerySpec.parse(payload)

    def test_non_iterable_rejected(self):
        with pytest.raises(QueryError, match="must be a list"):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"], "row_values": 7}
            )

    def test_list_of_values_still_parses(self):
        spec = QuerySpec.parse(
            {"kind": "assoc2d", "rows": ["field", "city"],
             "cols": ["field", "car"], "row_values": ["boston"]}
        )
        assert spec.param("row_values") == ("boston",)

    @pytest.mark.parametrize("name", ["row_values", "col_values"])
    def test_duplicate_association_values_rejected(self, name):
        with pytest.raises(QueryError, match="twice"):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"], name: ["boston", "boston"]}
            )

    def test_values_equal_after_string_conversion_are_duplicates(self):
        # Values are canonicalized to strings, so 1 and "1" collide.
        with pytest.raises(QueryError, match="twice"):
            QuerySpec.parse(
                {"kind": "assoc2d", "rows": ["field", "city"],
                 "cols": ["field", "car"], "row_values": [1, "1"]}
            )


class TestCanonicalization:
    """Equivalent payloads collapse to one equal, equally hashed spec."""

    def test_channel_filter_equals_explicit_focus_key(self):
        """The channel filter lowers to the same relfreq spec."""
        filtered = QuerySpec.parse(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"]],
             "candidates": ["field", "car"],
             "filters": {"channel": "email"}}
        )
        explicit = QuerySpec.parse(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"],
                       ["field", "channel", "email"]],
             "candidates": ["field", "car"]}
        )
        assert filtered == explicit
        assert hash(filtered) == hash(explicit)

    def test_focus_order_is_canonical(self):
        """Focus key order never splits the cache."""
        a = QuerySpec.parse(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"],
                       ["field", "car", "suv"]],
             "candidates": ["field", "channel"]}
        )
        b = QuerySpec.parse(
            {"kind": "relfreq",
             "focus": [["field", "car", "suv"],
                       ["field", "city", "boston"]],
             "candidates": ["field", "channel"]}
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_buckets_filter_equals_explicit_range(self):
        """[lo, hi] lowers to the same forced bucket list."""
        filtered = QuerySpec.parse(
            {"kind": "trends",
             "key": ["field", "city", "boston"],
             "filters": {"buckets": [0, 3]}}
        )
        explicit = QuerySpec.parse(
            {"kind": "trends",
             "key": ["field", "city", "boston"],
             "buckets": [0, 1, 2, 3]}
        )
        assert filtered == explicit
        assert hash(filtered) == hash(explicit)

    def test_category_filter_equals_explicit_dimension(self):
        """The category filter lowers to the candidate dimension."""
        filtered = QuerySpec.parse(
            {"kind": "emerging", "filters": {"category": "issue"}}
        )
        explicit = QuerySpec.parse(
            {"kind": "emerging", "dimension": ["concept", "issue"]}
        )
        assert filtered == explicit
        assert hash(filtered) == hash(explicit)


class TestPlanIdentity:
    """plan_query == the direct batch entry point, argument for argument."""

    def test_relfreq_matches_batch(self):
        """Served relfreq equals relative_frequency on the same index."""
        spec = QuerySpec.parse(
            {"kind": "relfreq",
             "focus": [["field", "city", "boston"]],
             "candidates": ["field", "car"]}
        )
        assert plan_query(spec, INDEX) == relative_frequency(
            INDEX, [field_key("city", "boston")], ("field", "car")
        )

    def test_assoc2d_matches_batch(self):
        """Served association equals associate on the same index."""
        spec = QuerySpec.parse(
            {"kind": "assoc2d", "rows": ["field", "city"],
             "cols": ["field", "car"]}
        )
        assert plan_query(spec, INDEX) == associate(
            INDEX, ("field", "city"), ("field", "car")
        )

    def test_trends_matches_batch(self):
        """Served trends equals trend_series, filter lowered and all."""
        spec = QuerySpec.parse(
            {"kind": "trends", "key": ["field", "city", "boston"],
             "filters": {"buckets": [0, 4]}}
        )
        assert plan_query(spec, INDEX) == trend_series(
            INDEX, field_key("city", "boston"),
            buckets=[0, 1, 2, 3, 4],
        )

    def test_emerging_matches_batch(self):
        """Served emerging equals emerging_concepts."""
        spec = QuerySpec.parse(
            {"kind": "emerging", "dimension": ["field", "car"],
             "min_total": 1}
        )
        assert plan_query(spec, INDEX) == emerging_concepts(
            INDEX, ("field", "car"), min_total=1
        )

    def test_cube_matches_batch(self):
        """Served cube (and its slice) equals concept_cube."""
        spec = QuerySpec.parse(
            {"kind": "cube",
             "dimensions": [["field", "city"], ["field", "car"]]}
        )
        batch = concept_cube(
            INDEX, [("field", "city"), ("field", "car")]
        )
        assert plan_query(spec, INDEX) == batch
        sliced = QuerySpec.parse(
            {"kind": "cube",
             "dimensions": [["field", "city"], ["field", "car"]],
             "slice": [["field", "city"], "boston"]}
        )
        assert plan_query(sliced, INDEX) == batch.slice(
            ("field", "city"), "boston"
        )

    def test_cube_channel_filter_slices_channel_dimension(self):
        """The channel filter appends the dimension and slices it."""
        spec = QuerySpec.parse(
            {"kind": "cube", "dimensions": [["field", "city"]],
             "filters": {"channel": "email"}}
        )
        batch = concept_cube(
            INDEX, [("field", "city"), ("field", "channel")]
        )
        assert plan_query(spec, INDEX) == batch.slice(
            ("field", "channel"), "email"
        )

    def test_drilldown_intersects_postings(self):
        """Drill-down returns the sorted conjunction of postings."""
        spec = QuerySpec.parse(
            {"kind": "drilldown",
             "keys": [["field", "city", "boston"]],
             "filters": {"channel": "email"}}
        )
        expected = sorted(
            INDEX.documents_with(field_key("city", "boston"))
            & INDEX.documents_with(field_key("channel", "email")),
            key=str,
        )
        assert plan_query(spec, INDEX) == {
            "doc_ids": expected, "texts": None,
        }

    def test_drilldown_with_text_requires_kept_documents(self):
        """with_text against a non-keeping index is a QueryError."""
        spec = QuerySpec.parse(
            {"kind": "drilldown",
             "keys": [["field", "city", "boston"]],
             "with_text": True}
        )
        with pytest.raises(QueryError):
            plan_query(spec, INDEX)

    def test_status_returns_index_stats(self):
        """The status plan is the index's own stats dict."""
        spec = QuerySpec.parse({"kind": "status"})
        assert plan_query(spec, INDEX) == INDEX.stats()

    def test_unused_concept_key_kinds_still_parse(self):
        """Concept keys (not just field keys) round-trip through specs."""
        spec = QuerySpec.parse(
            {"kind": "drilldown",
             "keys": [["concept", "issue", "billing"]]}
        )
        assert spec.param("keys") == (
            concept_key("issue", "billing"),
        )

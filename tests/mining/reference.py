"""Reference analytics: the per-cell Eqn 4 scorer and the aggregates.

:func:`reference_associate` is how an association table was scored
before its scoring was laid out per marginal: every cell computes
three proportion intervals (its own lower terminal and both marginals'
upper terminals), and every interval calls ``scipy.stats.norm.ppf``
afresh.  Counts are read straight from the index's postings.

The ``Reference*Aggregate`` classes are a frozen copy of the five
mining analytics as they were written before each became one counting
function and one result constructor: a ``partial`` that counts
(integers only) and a ``finalize`` that derives the result from those
counts.  :func:`reference_compute` runs one.  Only tests use them.
"""

import math
from collections import Counter

from scipy import stats

from repro.mining.assoc2d import AssociationCell, AssociationTable
from repro.mining.olap import ConceptCube
from repro.mining.relfreq import RelevancyResult
from repro.mining.trends import observed_bucket_range, trend_slope
from repro.util.intervals import (
    check_cell_counts,
    check_interval_options,
    lift_from_terminals,
    lift_point_estimate,
)
from repro.util.intervals import (
    proportion_interval as memoised_proportion_interval,
)


def proportion_interval(successes, trials, confidence, method):
    """Wilson or Wald interval, with the quantile computed every call."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if successes < 0 or successes > trials:
        raise ValueError("successes must be within [0, trials]")
    if trials == 0:
        return 0.0, 1.0
    z = stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials
    if method == "normal":
        margin = z * math.sqrt(max(phat * (1 - phat), 0.0) / trials)
        return max(0.0, phat - margin), min(1.0, phat + margin)
    if method != "wilson":
        raise ValueError(f"unknown interval method: {method!r}")
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    low = (centre - margin) / denom
    high = (centre + margin) / denom
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return max(0.0, low), min(1.0, high)


def lift_lower_bound(n_cell, n_ver, n_hor, n_total, confidence, method):
    """One cell's Eqn 4 lower bound from its own three intervals."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if min(n_cell, n_ver, n_hor) < 0:
        raise ValueError("counts must be non-negative")
    if n_cell > min(n_ver, n_hor):
        raise ValueError("cell count cannot exceed its marginals")
    cell_low, _ = proportion_interval(n_cell, n_total, confidence, method)
    _, ver_high = proportion_interval(n_ver, n_total, confidence, method)
    _, hor_high = proportion_interval(n_hor, n_total, confidence, method)
    if ver_high <= 0.0 or hor_high <= 0.0:
        return 0.0
    return cell_low / (ver_high * hor_high)


def reference_associate(index, row_dimension, col_dimension,
                        confidence=0.95, interval_method="wilson",
                        row_values=None, col_values=None):
    """The association table, each cell scored on its own."""
    row_dimension = tuple(row_dimension)
    col_dimension = tuple(col_dimension)
    if row_values is None:
        row_values = sorted(index.values_of_dimension(row_dimension))
    if col_values is None:
        col_values = sorted(index.values_of_dimension(col_dimension))
    grand_total = len(index)
    cells = {}
    for row_value in row_values:
        row_docs = index.documents_with(row_dimension + (row_value,))
        for col_value in col_values:
            col_docs = index.documents_with(col_dimension + (col_value,))
            count = len(row_docs & col_docs)
            cells[(row_value, col_value)] = AssociationCell(
                row_value=row_value,
                col_value=col_value,
                count=count,
                row_total=len(row_docs),
                col_total=len(col_docs),
                grand_total=grand_total,
                strength=lift_lower_bound(
                    count, len(row_docs), len(col_docs), grand_total,
                    confidence, interval_method,
                ),
                point_lift=lift_point_estimate(
                    count, len(row_docs), len(col_docs), grand_total
                ),
            )
    return AssociationTable(
        index, row_dimension, col_dimension, cells, row_values, col_values
    )


def reference_compute(aggregate, index):
    """``finalize(partial(index), index)``: one frozen aggregate run."""
    return aggregate.finalize(aggregate.partial(index), index)


class ReferenceRelativeFrequencyAggregate:
    """Relevancy analysis: focus/overall counts, then the ranking."""

    def __init__(self, focus_keys, candidate_dimension,
                 min_focus_count=1):
        focus_keys = [tuple(key) for key in focus_keys]
        if not focus_keys:
            raise ValueError("need at least one focus key")
        self.focus_keys = focus_keys
        self.candidate_dimension = tuple(candidate_dimension)
        self.min_focus_count = min_focus_count

    def partial(self, index):
        focus_docs = set(index.postings_view(self.focus_keys[0]))
        for key in self.focus_keys[1:]:
            focus_docs &= index.postings_view(key)
        overall = {}
        focus = {}
        for key in index.keys_of_dimension(self.candidate_dimension):
            if key in self.focus_keys:
                continue
            key_docs = index.postings_view(key)
            overall[key] = len(key_docs)
            focus[key] = len(key_docs & focus_docs)
        return {
            "overall_total": len(index),
            "focus_total": len(focus_docs),
            "overall": overall,
            "focus": focus,
        }

    def finalize(self, state, index):
        results = []
        for key in sorted(state["overall"]):
            focus_count = state["focus"].get(key, 0)
            if focus_count < self.min_focus_count:
                continue
            results.append(
                RelevancyResult(
                    key=key,
                    focus_count=focus_count,
                    focus_total=state["focus_total"],
                    overall_count=state["overall"][key],
                    overall_total=state["overall_total"],
                )
            )
        results.sort(key=lambda r: (-r.relative_frequency, r.key))
        return results


class ReferenceAssociationAggregate:
    """2-D association: marginal and cell counts, then Eqn 4 per cell."""

    def __init__(self, row_dimension, col_dimension, confidence=0.95,
                 interval_method="wilson", row_values=None,
                 col_values=None):
        check_interval_options(confidence, interval_method)
        self.row_dimension = tuple(row_dimension)
        self.col_dimension = tuple(col_dimension)
        self.confidence = confidence
        self.interval_method = interval_method
        self.row_values = _distinct_values(row_values, "row_values")
        self.col_values = _distinct_values(col_values, "col_values")

    def partial(self, index):
        if self.row_values is None:
            row_values = index.values_of_dimension(self.row_dimension)
        else:
            row_values = self.row_values
        if self.col_values is None:
            col_values = index.values_of_dimension(self.col_dimension)
        else:
            col_values = self.col_values
        row_totals = {}
        col_totals = {}
        pairs = {}
        col_views = {}
        for col_value in col_values:
            view = index.postings_view(self.col_dimension + (col_value,))
            col_views[col_value] = view
            col_totals[col_value] = len(view)
        for row_value in row_values:
            row_view = index.postings_view(
                self.row_dimension + (row_value,)
            )
            row_totals[row_value] = len(row_view)
            if not row_view:
                continue
            for col_value in col_values:
                count = len(row_view & col_views[col_value])
                if count:
                    pairs[(row_value, col_value)] = count
        return {
            "grand_total": len(index),
            "row_totals": row_totals,
            "col_totals": col_totals,
            "pairs": pairs,
        }

    def finalize(self, state, index):
        grand_total = state["grand_total"]
        if grand_total == 0:
            raise ValueError("cannot analyse an empty index")
        row_totals = state["row_totals"]
        col_totals = state["col_totals"]
        row_values = list(row_totals)
        col_values = list(col_totals)
        row_high = self._upper_terminals(row_totals, grand_total)
        col_high = self._upper_terminals(col_totals, grand_total)
        cells = {}
        for row_value in row_values:
            row_total = row_totals[row_value]
            for col_value in col_values:
                count = state["pairs"].get((row_value, col_value), 0)
                col_total = col_totals[col_value]
                check_cell_counts(count, row_total, col_total, grand_total)
                cell_low, _ = memoised_proportion_interval(
                    count,
                    grand_total,
                    confidence=self.confidence,
                    method=self.interval_method,
                )
                cells[(row_value, col_value)] = AssociationCell(
                    row_value=row_value,
                    col_value=col_value,
                    count=count,
                    row_total=row_total,
                    col_total=col_total,
                    grand_total=grand_total,
                    strength=lift_from_terminals(
                        cell_low, row_high[row_value], col_high[col_value]
                    ),
                    point_lift=lift_point_estimate(
                        count, row_total, col_total, grand_total
                    ),
                )
        return AssociationTable(
            index, self.row_dimension, self.col_dimension, cells,
            row_values, col_values,
        )

    def _upper_terminals(self, totals, grand_total):
        return {
            value: memoised_proportion_interval(
                total,
                grand_total,
                confidence=self.confidence,
                method=self.interval_method,
            )[1]
            for value, total in totals.items()
        }


def _distinct_values(values, what):
    if values is None:
        return None
    values = list(values)
    if len(set(values)) != len(values):
        raise ValueError(f"{what} lists a value twice: {values!r}")
    return values


def _bucket_counts(index, key):
    counts = {}
    for doc_id in index.postings_view(key):
        timestamp = index.timestamp_of(doc_id)
        if timestamp is None:
            continue
        counts[timestamp] = counts.get(timestamp, 0) + 1
    return counts


def _series_from_counts(counts, buckets):
    if buckets is None:
        buckets = observed_bucket_range(counts)
    return [(bucket, counts.get(bucket, 0)) for bucket in buckets]


class ReferenceTrendSeriesAggregate:
    """One key's per-bucket counts, then the zero-filled series."""

    def __init__(self, key, buckets=None):
        self.key = tuple(key)
        self.buckets = None if buckets is None else list(buckets)

    def partial(self, index):
        return _bucket_counts(index, self.key)

    def finalize(self, state, index):
        return _series_from_counts(state, self.buckets)


class ReferenceEmergingConceptsAggregate:
    """Per-key bucket counts of a dimension, then the slope ranking."""

    def __init__(self, dimension, buckets=None, min_total=3):
        self.dimension = tuple(dimension)
        self.buckets = None if buckets is None else list(buckets)
        self.min_total = min_total

    def partial(self, index):
        per_key = {}
        for key in index.keys_of_dimension(self.dimension):
            per_key[key] = _bucket_counts(index, key)
        return per_key

    def finalize(self, state, index):
        results = []
        for key in sorted(state):
            series = _series_from_counts(state[key], self.buckets)
            total = sum(count for _, count in series)
            if total < self.min_total:
                continue
            results.append((key, trend_slope(series), total))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results


def _cube_coordinate(keys, dimensions):
    coordinate = []
    for dimension in dimensions:
        values = sorted(key[2] for key in keys if key[:2] == dimension)
        if len(values) == 1:
            coordinate.append(values[0])
        elif not values:
            coordinate.append(None)
        else:
            coordinate.append("<multi>")
    return tuple(coordinate)


class ReferenceConceptCubeAggregate:
    """Per-coordinate document counts, then the cube over them."""

    def __init__(self, dimensions):
        if not dimensions:
            raise ValueError("cube needs at least one dimension")
        self.dimensions = [tuple(d) for d in dimensions]

    def partial(self, index):
        cells = Counter()
        for doc_id in index.document_ids:
            coordinate = _cube_coordinate(
                index.keys_of(doc_id), self.dimensions
            )
            cells[coordinate] += 1
        return cells

    def finalize(self, state, index):
        return ConceptCube(index, self.dimensions, Counter(state))

"""The per-cell Eqn 4 scorer, kept as the reference.

This is how an association table was scored before its finalize was
laid out per marginal: every cell computes three proportion intervals
(its own lower terminal and both marginals' upper terminals), and
every interval calls ``scipy.stats.norm.ppf`` afresh.  Counts are read
straight from the index's postings, not through the
partial/merge/finalize algebra.  Only tests use it.
"""

import math

from scipy import stats

from repro.mining.assoc2d import AssociationCell, AssociationTable
from repro.util.intervals import lift_point_estimate


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

"""Interval estimation helpers for the association analysis.

Paper Section IV-D.2 (Eqn 4) measures the association between a row
concept and a column concept with the exponentiated pointwise mutual
information::

    lift = (N_cell * N) / (N_ver * N_hor)

and notes that the point estimate "can be inaccurate when the value of
N_cell, N_ver, or N is not sufficiently large.  To avoid this problem,
we use the left terminal value (smallest value) of the interval
estimation instead of the point estimation."

This module provides the proportion intervals and the conservative
lower-bound lift used by :mod:`repro.mining.assoc2d`.

Both interval methods need the two-sided normal quantile
``z = norm.ppf(0.5 + confidence / 2)``.  It depends only on the
confidence and costs far more than the interval arithmetic, so
:func:`_z` computes it once per confidence and caches it for the life
of the process.  The value is scipy's: stdlib
``statistics.NormalDist().inv_cdf`` differs from it by one ulp at 0.8,
0.9, 0.95 and 0.99, and every published strength would move with it.

:func:`lift_from_terminals` is the one place the three interval
terminals become a lift.  :func:`lift_lower_bound` feeds it one cell's
three intervals; :func:`repro.mining.assoc2d.association_table`
feeds it each marginal's upper terminal computed once per row and per
column, and one lower terminal per cell.
"""

import math
from functools import lru_cache

from scipy import stats as _scipy_stats

#: The proportion interval methods :func:`proportion_interval` accepts.
INTERVAL_METHODS = ("wilson", "normal")


def check_interval_options(confidence, method):
    """Raise ``ValueError`` unless the options describe a real interval.

    ``confidence`` must be a number strictly inside (0, 1) — at 0 the
    interval collapses to the point estimate, and at 1 or beyond the
    normal quantile is infinite or NaN — and ``method`` one of
    :data:`INTERVAL_METHODS`.
    """
    _check_confidence(confidence)
    if method not in INTERVAL_METHODS:
        raise ValueError(f"unknown interval method: {method!r}")


def _check_confidence(confidence):
    """Reject a confidence that is not a number in (0, 1)."""
    if (
        isinstance(confidence, bool)
        or not isinstance(confidence, (int, float))
        or not 0.0 < confidence < 1.0
    ):
        raise ValueError(
            f"confidence must be a number in (0, 1), got {confidence!r}"
        )


@lru_cache(maxsize=32)
def _z(confidence):
    """The two-sided normal quantile of ``confidence`` (scipy's value)."""
    _check_confidence(confidence)
    return float(_scipy_stats.norm.ppf(0.5 + confidence / 2.0))


def _check_counts(successes, trials):
    """Reject counts that are not a proportion of ``trials``."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if successes < 0 or successes > trials:
        raise ValueError("successes must be within [0, trials]")


def wilson_interval(successes, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation for the small counts that
    appear in sparse association cells.

    Returns ``(low, high)``; for ``trials == 0`` returns ``(0.0, 1.0)``
    (total uncertainty).  Raises ``ValueError`` for counts outside
    ``0 <= successes <= trials`` or a confidence outside (0, 1).

    >>> low, high = wilson_interval(5, 10)
    >>> 0.0 < low < 0.5 < high < 1.0
    True
    """
    _check_counts(successes, trials)
    z = _z(confidence)
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    low = (centre - margin) / denom
    high = (centre + margin) / denom
    # Pin the exact boundary cases; floating-point noise otherwise leaves
    # values like 5e-16 where the interval terminal is analytically 0 or 1.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return max(0.0, low), min(1.0, high)


def proportion_interval(successes, trials, confidence=0.95, method="wilson"):
    """Confidence interval for a proportion.

    ``method`` is ``"wilson"`` (default) or ``"normal"`` (the classic
    Wald interval, kept for the ablation study on interval choice).
    Both reject the same invalid counts and confidences as
    :func:`wilson_interval`.
    """
    if method == "wilson":
        return wilson_interval(successes, trials, confidence=confidence)
    if method != "normal":
        raise ValueError(f"unknown interval method: {method!r}")
    _check_counts(successes, trials)
    z = _z(confidence)
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    margin = z * math.sqrt(max(phat * (1 - phat), 0.0) / trials)
    return max(0.0, phat - margin), min(1.0, phat + margin)


def lift_from_terminals(cell_low, ver_high, hor_high):
    """Eqn 4's conservative lift from its three interval terminals.

    ``cell_low`` is the lower terminal of the cell density and
    ``ver_high``/``hor_high`` the upper terminals of the two marginal
    densities.  Returns ``0.0`` when a marginal's upper terminal is 0
    (an empty marginal under the normal method: no evidence at all).
    """
    if ver_high <= 0.0 or hor_high <= 0.0:
        return 0.0
    return cell_low / (ver_high * hor_high)


def check_cell_counts(n_cell, n_ver, n_hor, n_total):
    """Raise ``ValueError`` unless the counts can form one Eqn 4 cell."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if min(n_cell, n_ver, n_hor) < 0:
        raise ValueError("counts must be non-negative")
    if n_cell > min(n_ver, n_hor):
        raise ValueError("cell count cannot exceed its marginals")


def lift_lower_bound(
    n_cell, n_ver, n_hor, n_total, confidence=0.95, method="wilson"
):
    """Conservative lower bound on the lift of Eqn 4.

    The lift is ``(N_cell / N) / ((N_ver / N) * (N_hor / N))``.  The
    paper replaces the three density point-estimates with interval
    terminals chosen to make the ratio as small as possible: the lower
    terminal for the cell density in the numerator and the upper
    terminals for the two marginal densities in the denominator.

    Returns ``0.0`` when either marginal is empty (no evidence at all).

    >>> lift_lower_bound(50, 100, 100, 1000) > 1.0
    True
    >>> lift_lower_bound(1, 2, 2, 1000) < (1 / 1000) / ((2 / 1000) ** 2)
    True
    """
    check_cell_counts(n_cell, n_ver, n_hor, n_total)
    cell_low, _ = proportion_interval(
        n_cell, n_total, confidence=confidence, method=method
    )
    _, ver_high = proportion_interval(
        n_ver, n_total, confidence=confidence, method=method
    )
    _, hor_high = proportion_interval(
        n_hor, n_total, confidence=confidence, method=method
    )
    return lift_from_terminals(cell_low, ver_high, hor_high)


def lift_point_estimate(n_cell, n_ver, n_hor, n_total):
    """The uncorrected point estimate of Eqn 4 (for the ablation bench).

    Returns ``0.0`` when a marginal is empty.
    """
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if n_ver == 0 or n_hor == 0:
        return 0.0
    return (n_cell * n_total) / (n_ver * n_hor)

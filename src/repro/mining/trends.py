"""Concept trend analysis over time.

"Even a simple function that examines the increase and decrease of
occurrences of each concept in a certain period may allow us to
analyze trends in the topics." (paper Section IV-D)

Both analyses count occurrences per bucket as integers, and derive
bucket ranges, zero-filling and slopes once from those integers (see
:mod:`repro.mining.analytic`).
"""

from repro.mining.analytic import Analytic, compute


def observed_bucket_range(observed):
    """Zero-fill-ready bucket list spanning the observed buckets.

    Integer buckets (the corpora's day/month indices) expand to the
    full contiguous ``min..max`` range so zero-count periods stay in
    the series — dropping them flattens every gap and makes
    :func:`trend_slope` overestimate rises.  Non-enumerable bucket
    types fall back to the sorted observed buckets.
    """
    buckets = sorted(observed)
    if not buckets:
        return []
    if all(
        isinstance(bucket, int) and not isinstance(bucket, bool)
        for bucket in buckets
    ):
        return list(range(buckets[0], buckets[-1] + 1))
    return buckets


def _bucket_counts(index, key):
    """Per-bucket occurrence counts of one key."""
    counts = {}
    for doc_id in index.postings_view(key):
        timestamp = index.timestamp_of(doc_id)
        if timestamp is None:
            continue
        counts[timestamp] = counts.get(timestamp, 0) + 1
    return counts


def _series_from_counts(counts, buckets):
    """The ``(bucket, count)`` series over a bucket list (zero-filled)."""
    if buckets is None:
        buckets = observed_bucket_range(counts)
    return [(bucket, counts.get(bucket, 0)) for bucket in buckets]


def _dimension_bucket_counts(index, dimension):
    """``{key: {bucket: count}}`` for every key of a dimension.

    Keys whose documents all lack timestamps still appear (with empty
    counts), so the key set is the dimension catalogue.
    """
    return {
        key: _bucket_counts(index, key)
        for key in index.keys_of_dimension(dimension)
    }


def _emerging_ranking(per_key, buckets, min_total):
    """Rank keys by least-squares slope of their zero-filled series."""
    results = []
    for key in sorted(per_key):
        series = _series_from_counts(per_key[key], buckets)
        total = sum(count for _, count in series)
        if total < min_total:
            continue
        results.append((key, trend_slope(series), total))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


def trend_series(index, key, buckets=None):
    """Occurrences of ``key`` per time bucket.

    Documents indexed without a timestamp are skipped.  Returns a list
    of ``(bucket, count)`` sorted by bucket; ``buckets`` forces the
    bucket list (zero-filled) so series align across concepts.  With
    ``buckets=None`` the series spans the key's full observed bucket
    range (:func:`observed_bucket_range`), so interior zero-count
    periods are reported as zeros rather than silently dropped.
    """
    key = tuple(key)
    buckets = None if buckets is None else list(buckets)
    return compute(Analytic(
        "trend-series",
        lambda counted: _bucket_counts(counted, key),
        lambda counts: _series_from_counts(counts, buckets),
        pure=True,
    ), index)


def emerging_concepts(index, dimension, buckets=None, min_total=3):
    """Concepts of a dimension ranked by rising trend.

    Returns ``(key, slope, total)`` tuples, steepest rise first —
    the "increase and decrease of occurrences of each concept" analysis
    the paper sketches.  Concepts with fewer than ``min_total``
    occurrences are dropped (their slopes are noise).
    """
    dimension = tuple(dimension)
    buckets = None if buckets is None else list(buckets)
    return compute(Analytic(
        "emerging-concepts",
        lambda counted: _dimension_bucket_counts(counted, dimension),
        lambda per_key: _emerging_ranking(per_key, buckets, min_total),
        pure=True,
    ), index)


def trend_slope(series):
    """Least-squares slope of a ``(bucket, count)`` series.

    Buckets must be numeric.  Positive slope = rising topic.  Returns
    0.0 for series shorter than 2 points.
    """
    if len(series) < 2:
        return 0.0
    xs = [float(bucket) for bucket, _ in series]
    ys = [float(count) for _, count in series]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0.0:
        return 0.0
    numerator = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    )
    return numerator / denominator

"""Relevancy analysis with relative frequency (paper Section IV-D.1).

"It compares the distributions of concepts within a specific data set
featured with one or more concepts with the distribution of the
concepts in the entire data set. ... By sorting phrases in a category
based on the relative frequencies, relevant concepts for a specific
data set are revealed."

:func:`relevancy_counts` counts focus and overall documents as
integers, and :func:`relevancy_ranking` derives every frequency ratio
once from those integers (see :mod:`repro.mining.analytic`).
"""

from dataclasses import dataclass

from repro.mining.analytic import Analytic, compute


@dataclass(frozen=True)
class RelevancyResult:
    """One concept's relative frequency inside a focus subset."""

    key: tuple
    focus_count: int
    focus_total: int
    overall_count: int
    overall_total: int

    @property
    def focus_frequency(self):
        """Concept frequency inside the focus subset."""
        if self.focus_total == 0:
            return 0.0
        return self.focus_count / self.focus_total

    @property
    def overall_frequency(self):
        """Concept frequency over the whole collection."""
        if self.overall_total == 0:
            return 0.0
        return self.overall_count / self.overall_total

    @property
    def relative_frequency(self):
        """Focus frequency over overall frequency (1.0 = unremarkable)."""
        if self.overall_frequency == 0.0:
            return 0.0
        return self.focus_frequency / self.overall_frequency


def relevancy_counts(index, focus_keys, candidate_dimension):
    """The index's focus and overall document counts (integers only).

    Returns ``(overall_total, focus_total, overall, focus)``: the
    document totals of the index and of the focus subset, and per
    candidate key its document count overall and inside the subset.
    """
    focus_docs = set(index.postings_view(focus_keys[0]))
    for key in focus_keys[1:]:
        focus_docs &= index.postings_view(key)
    overall = {}
    focus = {}
    for key in index.keys_of_dimension(candidate_dimension):
        if key in focus_keys:
            continue
        key_docs = index.postings_view(key)
        overall[key] = len(key_docs)
        focus[key] = len(key_docs & focus_docs)
    return len(index), len(focus_docs), overall, focus


def relevancy_ranking(counts, min_focus_count):
    """Rank by relative frequency from :func:`relevancy_counts`."""
    overall_total, focus_total, overall, focus = counts
    results = [
        RelevancyResult(
            key=key,
            focus_count=focus[key],
            focus_total=focus_total,
            overall_count=overall[key],
            overall_total=overall_total,
        )
        for key in sorted(overall)
        if focus[key] >= min_focus_count
    ]
    results.sort(key=lambda r: (-r.relative_frequency, r.key))
    return results


def relative_frequency(index, focus_keys, candidate_dimension,
                       min_focus_count=1):
    """Rank the concepts of a dimension by relative frequency.

    ``focus_keys`` select the focus subset (documents carrying *all* of
    them — "featured with one or more concepts"); the concepts of
    ``candidate_dimension`` (("concept", category) or ("field", name))
    are ranked by how over-represented they are inside the subset.

    Returns :class:`RelevancyResult` objects, most over-represented
    first (ties broken by key, so the order is deterministic).
    """
    focus_keys = [tuple(key) for key in focus_keys]
    if not focus_keys:
        raise ValueError("need at least one focus key")
    candidate_dimension = tuple(candidate_dimension)
    return compute(Analytic(
        "relative-frequency",
        lambda counted: relevancy_counts(
            counted, focus_keys, candidate_dimension
        ),
        lambda counts: relevancy_ranking(counts, min_focus_count),
        pure=True,
    ), index)

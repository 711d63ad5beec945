"""Sliding-window analytics: the batch mining functions over live documents.

A stream needs "the increase and decrease of occurrences of each
concept in a certain period" (paper Section IV-D) after every
micro-batch.  Every indexed document carries its time bucket, so that
period is a bucket range of the consumer's one
:class:`~repro.mining.index.ConceptIndex`, read through
:meth:`~repro.mining.index.ConceptIndex.between`.

Each snapshot is one call to the batch mining function —
:func:`~repro.mining.assoc2d.associate`,
:func:`~repro.mining.relfreq.relative_frequency`,
:func:`~repro.mining.trends.trend_series` or
:func:`~repro.mining.trends.emerging_concepts` — on that range, so a
snapshot equals the batch result over exactly the window's documents
by construction.
"""

from dataclasses import dataclass

from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.util.intervals import check_interval_options


@dataclass(frozen=True)
class AssocSpec:
    """A registered 2-D association read from the window.

    Dimensions follow the batch convention: ``("concept", category)``
    or ``("field", name)``.
    """

    row_dimension: tuple
    col_dimension: tuple
    confidence: float = 0.95
    interval_method: str = "wilson"

    def __post_init__(self):
        """Reject a confidence outside (0, 1) or an unknown method."""
        check_interval_options(self.confidence, self.interval_method)


@dataclass(frozen=True)
class RelFreqSpec:
    """A registered relative-frequency query read from the window.

    ``focus_keys`` is a tuple of full concept keys selecting the focus
    subset (documents carrying *all* of them); ``candidate_dimension``
    names the dimension whose concepts are ranked.
    """

    focus_keys: tuple
    candidate_dimension: tuple
    min_focus_count: int = 1


class WindowedAnalytics:
    """The last ``window_buckets`` time buckets of one concept index.

    Holds no documents: with ``t`` the newest committed bucket, the
    window is every document of the index with a bucket in
    ``[t - window_buckets + 1, t]``.  A re-delivered ``doc_id`` is
    whatever version the index kept, so one re-delivered below the
    floor leaves the window, as in a batch run over the final index.
    """

    def __init__(self, window_buckets, assoc_specs=(), relfreq_specs=()):
        """Register the analyses the snapshots answer."""
        if window_buckets < 1:
            raise ValueError("window_buckets must be >= 1")
        self.window_buckets = int(window_buckets)
        self.assoc_specs = list(assoc_specs)
        self.relfreq_specs = list(relfreq_specs)
        self._index = None
        self._max_bucket = None
        # (index, its writes, floor, newest bucket) and the view they
        # give, swapped as one tuple so a reader never pairs a view with
        # the wrong key.
        self._view = (None, None)

    def ingest(self, index, buckets):
        """Advance the cursor over one committed batch of ``index``.

        ``buckets`` maps each surviving doc id to its time bucket; a
        document without one is rejected.
        """
        for doc_id, bucket in buckets.items():
            if bucket is None:
                raise ValueError(
                    f"document {doc_id!r} has no timestamp; windowed "
                    f"analytics need a time bucket per document"
                )
            if self._max_bucket is None or bucket > self._max_bucket:
                self._max_bucket = bucket
        self._index = index

    # ------------------------------------------------------------------
    # window state
    # ------------------------------------------------------------------

    @property
    def index(self):
        """A frozen view of the index's documents inside the window.

        Built once per index write and cursor: every read between two
        commits (snapshots, ``len``, :attr:`buckets`) shares one view.
        """
        if self._max_bucket is None:
            return ConceptIndex().snapshot()
        floor = self.window_floor
        key = (self._index, self._index.writes, floor, self._max_bucket)
        cached, view = self._view
        if cached != key:
            view = self._index.between(floor, self._max_bucket)
            self._view = (key, view)
        return view

    @property
    def window_floor(self):
        """Oldest bucket still inside the window (None when empty)."""
        if self._max_bucket is None:
            return None
        return self._max_bucket - self.window_buckets + 1

    @property
    def buckets(self):
        """Sorted non-empty buckets currently inside the window."""
        view = self.index
        return sorted({view.timestamp_of(doc) for doc in view.document_ids})

    def __len__(self):
        return len(self.index)

    # ------------------------------------------------------------------
    # snapshots: the batch mining functions on the window's documents
    # ------------------------------------------------------------------

    def trend_snapshot(self, key, buckets=None):
        """``(bucket, count)`` series for ``key`` over the window.

        :func:`~repro.mining.trends.trend_series` on the window view.
        """
        return trend_series(self.index, key, buckets=buckets)

    def emerging_snapshot(self, dimension, buckets=None, min_total=3):
        """Rising concepts of a dimension, steepest slope first.

        :func:`~repro.mining.trends.emerging_concepts` on the window
        view.
        """
        return emerging_concepts(
            self.index, dimension, buckets=buckets, min_total=min_total
        )

    def assoc_snapshot(self, spec_index=0):
        """The registered association's table over the window.

        :func:`~repro.mining.assoc2d.associate` on the window view;
        raises ``ValueError`` on an empty window.
        """
        view = self.index
        if not len(view):
            raise ValueError("cannot analyse an empty window")
        spec = self.assoc_specs[spec_index]
        return associate(
            view, spec.row_dimension, spec.col_dimension,
            confidence=spec.confidence,
            interval_method=spec.interval_method,
        )

    def relfreq_snapshot(self, spec_index=0):
        """The registered relevancy ranking over the window.

        :func:`~repro.mining.relfreq.relative_frequency` on the window
        view.
        """
        spec = self.relfreq_specs[spec_index]
        return relative_frequency(
            self.index, spec.focus_keys, spec.candidate_dimension,
            min_focus_count=spec.min_focus_count,
        )

    # ------------------------------------------------------------------
    # checkpoint round trip
    # ------------------------------------------------------------------

    def to_state(self):
        """JSON-safe snapshot of the window: its width and its cursor."""
        return {
            "window_buckets": self.window_buckets,
            "max_bucket": self._max_bucket,
        }

    def restore_state(self, state, index):
        """Point the window at ``index`` with a :meth:`to_state` cursor.

        Older blocks also list the window's ``documents`` and its
        ``late_dropped``/``evicted`` counters; they are ignored, since
        the documents are in the consumer's rebuilt ``index``.
        """
        if state["window_buckets"] != self.window_buckets:
            raise ValueError(
                f"checkpoint window is {state['window_buckets']} "
                f"buckets, consumer is configured for "
                f"{self.window_buckets}"
            )
        self._index = index
        self._max_bucket = state["max_bucket"]
        return self

"""The window that kept its own index, kept as the reference.

:class:`ReferenceWindow` is the sliding window before it became a
bucket range of the consumer's one concept index: a private
:class:`~repro.mining.index.ConceptIndex` of the live documents, fed
one surviving document at a time, with its own upsert, late-drop and
eviction.  :func:`run_with_reference` feeds it exactly as the stream
consumer used to (after each commit, every survivor's keys and bucket
read back from the main index), and :func:`window_snapshots` turns any
window into one ``==``-comparable answer.  Only tests use them.
"""

from repro.engine import FunctionStage
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series


class ReferenceWindow:
    """A sliding window of documents with batch-computed snapshots.

    ``window_buckets`` is the window width in integer time buckets:
    after a document with bucket ``t`` arrives, only documents with
    buckets in ``[t - window_buckets + 1, t]`` remain live.  Documents
    older than the current floor are *late* — counted and dropped, not
    ingested — so window state never depends on arrival order beyond
    the in-window upsert semantics.

    Re-ingesting a live ``doc_id`` replaces it, mirroring the
    at-least-once/idempotent contract of the stream consumer.
    """

    def __init__(self, window_buckets, assoc_specs=(), relfreq_specs=()):
        """Register the analyses the snapshots answer."""
        if window_buckets < 1:
            raise ValueError("window_buckets must be >= 1")
        self.window_buckets = int(window_buckets)
        self.assoc_specs = list(assoc_specs)
        self.relfreq_specs = list(relfreq_specs)
        self._reset()

    def _reset(self):
        """Blank every window structure (fresh or pre-restore)."""
        self._index = ConceptIndex()
        self._by_bucket = {}  # bucket -> [doc_id, ...] in ingest order
        self._max_bucket = None
        self.late_dropped = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # ingest / evict
    # ------------------------------------------------------------------

    def ingest(self, doc_id, keys, timestamp):
        """Add one document to the window; returns False if late.

        ``keys`` is the document's full concept-key set (as produced
        by the main :class:`ConceptIndex`); ``timestamp`` its integer
        time bucket.  Advancing the maximum bucket evicts every bucket
        that falls off the window floor.
        """
        if timestamp is None:
            raise ValueError(
                f"document {doc_id!r} has no timestamp; windowed "
                f"analytics need a time bucket per document"
            )
        floor = self.window_floor
        if floor is not None and timestamp < floor:
            self.late_dropped += 1
            return False
        if doc_id in self._index:
            self._forget(doc_id)
        self._index.add_keys(
            doc_id, keys, timestamp=timestamp, on_duplicate="raise"
        )
        self._by_bucket.setdefault(timestamp, []).append(doc_id)
        if self._max_bucket is None or timestamp > self._max_bucket:
            self._max_bucket = timestamp
            self._evict_below(self.window_floor)
        return True

    def _forget(self, doc_id):
        """Drop one live document from the index and its bucket."""
        timestamp = self._index.timestamp_of(doc_id)
        self._by_bucket[timestamp].remove(doc_id)
        if not self._by_bucket[timestamp]:
            del self._by_bucket[timestamp]
        self._index.remove(doc_id)

    def _evict_below(self, floor):
        """Evict every document in a bucket below ``floor``."""
        stale = sorted(b for b in self._by_bucket if b < floor)
        for bucket in stale:
            for doc_id in list(self._by_bucket[bucket]):
                self._forget(doc_id)
                self.evicted += 1

    # ------------------------------------------------------------------
    # window state
    # ------------------------------------------------------------------

    @property
    def index(self):
        """The window-scoped concept index (read it, don't mutate it)."""
        return self._index

    @property
    def window_floor(self):
        """Oldest bucket still inside the window (None when empty)."""
        if self._max_bucket is None:
            return None
        return self._max_bucket - self.window_buckets + 1

    @property
    def buckets(self):
        """Sorted non-empty buckets currently inside the window."""
        return sorted(self._by_bucket)

    def __len__(self):
        return len(self._index)

    # ------------------------------------------------------------------
    # snapshots: the batch mining functions on the window index
    # ------------------------------------------------------------------

    def trend_snapshot(self, key, buckets=None):
        """``(bucket, count)`` series for ``key`` over the window.

        :func:`~repro.mining.trends.trend_series` on the window index.
        """
        return trend_series(self._index, key, buckets=buckets)

    def emerging_snapshot(self, dimension, buckets=None, min_total=3):
        """Rising concepts of a dimension, steepest slope first.

        :func:`~repro.mining.trends.emerging_concepts` on the window
        index.
        """
        return emerging_concepts(
            self._index, dimension, buckets=buckets, min_total=min_total
        )

    def assoc_snapshot(self, spec_index=0):
        """The registered association's table over the window.

        :func:`~repro.mining.assoc2d.associate` on the window index;
        raises ``ValueError`` on an empty window.
        """
        if not len(self._index):
            raise ValueError("cannot analyse an empty window")
        spec = self.assoc_specs[spec_index]
        return associate(
            self._index, spec.row_dimension, spec.col_dimension,
            confidence=spec.confidence,
            interval_method=spec.interval_method,
        )

    def relfreq_snapshot(self, spec_index=0):
        """The registered relevancy ranking over the window.

        :func:`~repro.mining.relfreq.relative_frequency` on the window
        index.
        """
        spec = self.relfreq_specs[spec_index]
        return relative_frequency(
            self._index, spec.focus_keys, spec.candidate_dimension,
            min_focus_count=spec.min_focus_count,
        )

    # ------------------------------------------------------------------
    # checkpoint round trip
    # ------------------------------------------------------------------

    def to_state(self):
        """JSON-safe snapshot of the window's documents and cursor."""
        return {
            "window_buckets": self.window_buckets,
            "max_bucket": self._max_bucket,
            "late_dropped": self.late_dropped,
            "evicted": self.evicted,
            "documents": [
                {
                    "doc_id": doc_id,
                    "keys": sorted(
                        list(key) for key in self._index.keys_of(doc_id)
                    ),
                    "timestamp": self._index.timestamp_of(doc_id),
                }
                for doc_id in self._index.document_ids
            ],
        }

    def restore_state(self, state):
        """Rebuild the window from a :meth:`to_state` snapshot.

        Documents are re-ingested in their original insertion order,
        which reproduces the window index and its bucket lists exactly.
        """
        if state["window_buckets"] != self.window_buckets:
            raise ValueError(
                f"checkpoint window is {state['window_buckets']} "
                f"buckets, consumer is configured for "
                f"{self.window_buckets}"
            )
        self._reset()
        for entry in state["documents"]:
            self.ingest(entry["doc_id"], entry["keys"], entry["timestamp"])
        self._max_bucket = state["max_bucket"]
        self.late_dropped = state["late_dropped"]
        self.evicted = state["evicted"]
        return self


def survivor_tap(seen):
    """A last stage that appends each surviving doc id to ``seen``."""
    return FunctionStage(
        "survivors", lambda document: seen.append(document.doc_id)
    )


def run_with_reference(consumer, seen):
    """Drain ``consumer``, checking its window after every commit.

    ``seen`` is the list a :func:`survivor_tap` at the end of the
    consumer's stage graph fills.  After each committed batch the
    reference ingests those survivors one by one, with the keys and
    bucket the main index holds for them, and the consumer's window
    must answer every snapshot exactly as the reference does.
    Returns the reference and every survivor, in commit order.
    """
    window = consumer.window
    reference = ReferenceWindow(
        window.window_buckets,
        assoc_specs=window.assoc_specs,
        relfreq_specs=window.relfreq_specs,
    )
    survivors = []
    seen.clear()
    while consumer.step():
        index = consumer.index
        survivors.extend(seen)
        for doc_id in seen:
            reference.ingest(
                doc_id, index.keys_of(doc_id), index.timestamp_of(doc_id)
            )
        seen.clear()
        offset = consumer.committed_offset
        assert window_snapshots(window) == window_snapshots(reference), (
            f"window differs from the reference at offset {offset}"
        )
    return reference, survivors


def _answer(read):
    """``read()``, or the message of the ``ValueError`` it raises."""
    try:
        return read()
    except ValueError as exc:
        return ("ValueError", str(exc))


def window_snapshots(window):
    """Every snapshot ``window`` answers, as one comparable dict.

    Each registered association and relevancy ranking; the emerging
    concepts of every dimension those specs name, over the window's
    own buckets and over forced buckets reaching past both window
    edges; and the forced-bucket trend of every key of those
    dimensions.  Also the window's documents (sorted, since their
    order is the owning index's), buckets and floor.
    """
    view = window.index
    dimensions = sorted({
        tuple(dimension)
        for spec in window.assoc_specs
        for dimension in (spec.row_dimension, spec.col_dimension)
    } | {tuple(spec.candidate_dimension) for spec in window.relfreq_specs})
    floor = window.window_floor
    forced = (
        [] if floor is None
        else list(range(floor - window.window_buckets,
                        floor + 2 * window.window_buckets + 1))
    )
    return {
        "documents": sorted(view.document_ids, key=repr),
        "buckets": window.buckets,
        "floor": floor,
        "assoc": [
            _answer(lambda i=i: window.assoc_snapshot(i))
            for i in range(len(window.assoc_specs))
        ],
        "relfreq": [
            _answer(lambda i=i: window.relfreq_snapshot(i))
            for i in range(len(window.relfreq_specs))
        ],
        "emerging": {
            (dimension, label): _answer(
                lambda d=dimension, b=buckets: window.emerging_snapshot(
                    d, buckets=b, min_total=1
                )
            )
            for dimension in dimensions
            for label, buckets in (("own", None), ("forced", forced))
        },
        "trend": {
            key: window.trend_snapshot(key, buckets=forced)
            for dimension in dimensions
            for key in view.keys_of_dimension(dimension)
        },
    }

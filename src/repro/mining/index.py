"""The concept inverted index.

Documents are indexed under *concept keys*.  Two key families exist so
that one analysis can mix both sides of the house ("Some of these
concepts could be dimensions from unstructured data and others could be
from structured data", paper Section IV-D.2):

* ``concept_key(category, canonical)`` — an annotation-engine concept,
* ``field_key(name, value)`` — a structured attribute of the linked
  record.

Both key constructors live in :mod:`repro.store.contract` (the
storage vocabulary's home layer) and are re-exported here for the
mining call sites.
"""

from collections import defaultdict

# concept_key/field_key are re-exported: the mining layer's historic
# import path for the key constructors that live in the store layer.
from repro.store.contract import concept_key, field_key


class ConceptIndex:
    """In-memory inverted index: concept key -> document ids.

    With ``keep_documents=True`` the index also retains each document's
    text so drill-down (Fig 4: "right upto individual documents") can
    show the underlying messages, at the cost of holding them in
    memory.

    Two postings accessors exist on purpose:

    * :meth:`documents_with` — the public read: always returns a
      defensive copy callers may mutate freely;
    * :meth:`postings_view` — the read-only hot-loop accessor: returns
      internal state and must never be mutated by the caller.

    Concurrent serving adds a third leg: :meth:`snapshot` returns an
    *immutable point-in-time view* that shares postings storage with
    the live index (copy-on-write), and no later write to the live
    index — replace-path upserts included — ever alters what the
    snapshot (or any ``postings_view`` obtained from it) observes.
    Snapshots are what the serving layer publishes per epoch so
    readers never see a half-applied micro-batch.
    """

    #: Accepted duplicate-handling policies for :meth:`add`/:meth:`add_keys`.
    ON_DUPLICATE = ("raise", "replace", "skip")

    def __init__(self, keep_documents=False):
        self._postings = defaultdict(set)
        self._documents = {}
        self._dimension_values = defaultdict(set)
        self._keep_documents = keep_documents
        self._texts = {}
        # Snapshot support (copy-on-write).  ``_frozen`` marks an
        # immutable snapshot view; the two ``_shared_*`` sets name the
        # postings / dimension-value sets currently aliased by a live
        # snapshot, which a writer must copy before mutating.
        self._frozen = False
        self._shared_postings = set()
        self._shared_dimensions = set()
        self._writes = 0

    @property
    def writes(self):
        """How many writes (adds and removes) this index has taken.

        A reader caching something derived from the index keys it on
        this count: the cache is current while the count stands still.
        """
        return self._writes

    def _owned_postings(self, key):
        """The postings set of ``key``, safe to mutate in place.

        Copy-on-write half of the snapshot contract: a set still
        shared with a published snapshot is replaced by a private copy
        before the caller touches it, so the snapshot's view never
        moves.
        """
        postings = self._postings[key]
        if key in self._shared_postings:
            postings = set(postings)
            self._postings[key] = postings
            self._shared_postings.discard(key)
        return postings

    def _owned_dimension(self, dimension):
        """The value set of ``dimension``, safe to mutate in place."""
        values = self._dimension_values[dimension]
        if dimension in self._shared_dimensions:
            values = set(values)
            self._dimension_values[dimension] = values
            self._shared_dimensions.discard(dimension)
        return values

    def _require_writable(self):
        """Raise when this index is a frozen snapshot view."""
        if self._frozen:
            raise RuntimeError(
                "index snapshot is immutable; write to the live index "
                "and publish a new snapshot instead"
            )

    def add(self, doc_id, annotated=None, fields=None, timestamp=None,
            text=None, on_duplicate="raise"):
        """Index one document.

        ``annotated`` is an :class:`AnnotatedDocument` (its concepts are
        indexed by (category, canonical)); ``fields`` maps structured
        field names to values; ``timestamp`` is an arbitrary orderable
        time bucket used by trend analysis.  ``text`` overrides the
        stored drill-down text (defaults to ``annotated.text``) when the
        index keeps documents.

        ``on_duplicate`` selects what a re-delivered ``doc_id`` does:
        ``"raise"`` (the default, the one-shot batch contract),
        ``"replace"`` (drop the old postings and re-index — the
        idempotent upsert streaming consumers need), or ``"skip"``
        (keep the first delivery, ignore this one).
        """
        keys = set()
        if annotated is not None:
            for concept in annotated.concepts:
                key = concept_key(concept.category, concept.canonical)
                keys.add(key)
        for name, value in (fields or {}).items():
            if value is None:
                continue
            keys.add(field_key(name, value))
        stored = text
        if stored is None and annotated is not None:
            stored = annotated.text
        return self.add_keys(
            doc_id,
            keys,
            timestamp=timestamp,
            text=stored,
            on_duplicate=on_duplicate,
        )

    def add_keys(self, doc_id, keys, timestamp=None, text=None,
                 on_duplicate="raise"):
        """Index one document under pre-built concept keys.

        The low-level core of :meth:`add` — used directly when the keys
        already exist (checkpoint restore) and re-annotating would be
        wasted work.  ``keys`` is an iterable of 3-tuples from
        :func:`concept_key`/:func:`field_key`;
        ``on_duplicate`` follows the :meth:`add` contract.  A
        ``"replace"`` re-insert moves the document to the end of the
        insertion order.
        """
        if on_duplicate not in self.ON_DUPLICATE:
            raise ValueError(
                f"on_duplicate must be one of {self.ON_DUPLICATE}, "
                f"got {on_duplicate!r}"
            )
        self._require_writable()
        if doc_id in self._documents:
            if on_duplicate == "raise":
                raise ValueError(f"document {doc_id!r} already indexed")
            if on_duplicate == "skip":
                return self
            self.remove(doc_id)
        keys = {tuple(key) for key in keys}
        for key in keys:
            self._owned_postings(key).add(doc_id)
            self._owned_dimension(key[:2]).add(key[2])
        self._documents[doc_id] = {
            "keys": keys,
            "timestamp": timestamp,
        }
        if self._keep_documents:
            self._texts[doc_id] = text or ""
        self._writes += 1
        return self

    def remove(self, doc_id):
        """Un-index one document, releasing all its postings.

        Postings sets shrink; a key whose last document disappears is
        dropped entirely, and its value leaves the dimension-value
        catalogue, so an index after ``add`` + ``remove`` is
        indistinguishable from one that never saw the document.
        """
        self._require_writable()
        try:
            entry = self._documents.pop(doc_id)
        except KeyError:
            raise KeyError(f"document {doc_id!r} not indexed") from None
        for key in entry["keys"]:
            postings = self._owned_postings(key)
            postings.discard(doc_id)
            if not postings:
                del self._postings[key]
                dimension = key[:2]
                values = self._owned_dimension(dimension)
                values.discard(key[2])
                if not values:
                    del self._dimension_values[dimension]
        self._texts.pop(doc_id, None)
        self._writes += 1
        return self

    @property
    def keeps_documents(self):
        """Whether the index stores drill-down texts."""
        return self._keep_documents

    def text_of(self, doc_id):
        """Drill-down text of a document (requires keep_documents)."""
        if not self._keep_documents:
            raise RuntimeError(
                "index built without keep_documents=True"
            )
        if doc_id not in self._documents:
            raise KeyError(f"document {doc_id!r} not indexed")
        return self._texts[doc_id]

    def __len__(self):
        return len(self._documents)

    def __contains__(self, doc_id):
        return doc_id in self._documents

    @property
    def document_ids(self):
        """All indexed document ids, insertion-ordered."""
        return list(self._documents)

    def document_entries(self):
        """``(doc_id, entry)`` pairs in insertion order (read-only, no copy).

        An entry is a dict with the document's ``"keys"`` set and
        ``"timestamp"``.  Each add or replace stores a fresh entry and
        none is ever mutated, so a caller may key a cache on an
        entry's identity; it must not mutate an entry itself.
        """
        return self._documents.items()

    def keys_of(self, doc_id):
        """All concept keys of one document."""
        return set(self._documents[doc_id]["keys"])

    def timestamp_of(self, doc_id):
        """The time bucket the document was indexed under."""
        return self._documents[doc_id]["timestamp"]

    def postings_view(self, key):
        """Read-only doc-id set for one concept key (no copy).

        The hot-loop accessor behind the analytics' counting: it hands
        back the internal postings set, so the caller must not mutate
        it — :meth:`documents_with` is the public read that copies.
        """
        return self._postings.get(key, frozenset())

    def documents_with(self, key):
        """Doc-id set for one concept key (a defensive copy)."""
        return set(self._postings.get(key, ()))

    def count(self, key):
        """Number of documents carrying the key."""
        return len(self._postings.get(key, ()))

    def count_pair(self, key_a, key_b):
        """Documents carrying both keys."""
        return len(
            self._postings.get(key_a, set())
            & self._postings.get(key_b, set())
        )

    def values_of_dimension(self, dimension):
        """All observed values of a dimension.

        ``dimension`` is ``("concept", category)`` or
        ``("field", name)``.
        """
        return sorted(self._dimension_values.get(tuple(dimension), ()))

    def keys_of_dimension(self, dimension):
        """All concept keys of one dimension."""
        dimension = tuple(dimension)
        return [
            dimension + (value,)
            for value in self.values_of_dimension(dimension)
        ]

    def concept_keys(self):
        """All distinct concept keys in the index, sorted."""
        return sorted(self._postings)

    def stats(self):
        """Cheap structural counters: documents and distinct concepts.

        O(1) dictionary sizes — safe to expose on a hot health
        endpoint.
        """
        return {
            "documents": len(self._documents),
            "concepts": len(self._postings),
        }

    @property
    def is_snapshot(self):
        """True for an immutable snapshot view, False for a live index."""
        return self._frozen

    def snapshot(self):
        """An immutable point-in-time view of this index (copy-on-write).

        The view shallow-copies the posting/document/dimension tables
        and *shares the posting sets* with the live index; every
        shared set is recorded so the next live-index write to it
        copies first (:meth:`_owned_postings`).  Publication therefore
        costs O(distinct keys) pointer copies, not a deep copy of the
        postings — and the view is frozen forever: later upserts
        (including the replace path, which removes old postings in
        place) can never alter what the view observes.  Snapshotting a
        snapshot returns the snapshot itself.
        """
        if self._frozen:
            return self
        view = self._frozen_view(
            dict(self._postings), dict(self._documents),
            dict(self._dimension_values), dict(self._texts),
        )
        # Every current set is now aliased by the view: the live index
        # must copy-on-write before its next in-place mutation.
        self._shared_postings = set(self._postings)
        self._shared_dimensions = set(self._dimension_values)
        return view

    def between(self, lo, hi):
        """A frozen view of the documents whose time bucket is in [lo, hi].

        Insertion order is kept; postings, dimension values and texts
        are filtered down to those documents, so every read answers as
        an index of them alone would.  Untimed documents are never in
        range, and the view shares no set with this index.
        """
        documents = {
            doc_id: entry for doc_id, entry in self._documents.items()
            if entry["timestamp"] is not None
            and lo <= entry["timestamp"] <= hi
        }
        postings = {}
        dimension_values = defaultdict(set)
        for key, ids in self._postings.items():
            kept = ids & documents.keys()
            if kept:
                postings[key] = kept
                dimension_values[key[:2]].add(key[2])
        texts = {d: self._texts[d] for d in documents if d in self._texts}
        return self._frozen_view(postings, documents, dimension_values, texts)

    def _frozen_view(self, postings, documents, dimension_values, texts):
        """An immutable index over the given tables (no copies made)."""
        view = ConceptIndex.__new__(ConceptIndex)
        view._postings = postings
        view._documents = documents
        view._dimension_values = dimension_values
        view._keep_documents = self._keep_documents
        view._texts = texts
        view._frozen = True
        view._shared_postings = set()
        view._shared_dimensions = set()
        view._writes = 0
        return view

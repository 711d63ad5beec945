"""Checkpointing: durable consumer state with atomic JSON round trips.

A checkpoint captures everything a killed consumer needs to resume
without losing or double-counting documents: the last committed source
offset, the full main :class:`~repro.mining.index.ConceptIndex`, and
the window's width and newest-bucket cursor (its documents are a
bucket range of that index).  The style follows
:mod:`repro.store.persist` — plain JSON dicts, explicit
``*_to_state`` / ``*_from_state`` round-trip functions — and writes
are atomic (temp file + ``os.replace``) so a crash *during*
checkpointing leaves the previous checkpoint intact rather than a
torn file.  A save encodes its payload once, as the canonical JSON
its checksum covers; an :class:`IndexStateMemo` lets a consumer
encode each indexed document once rather than once per save.

On top of atomicity, checkpoints are defended in depth:

* every payload carries a mandatory SHA-256 stamp
  (:mod:`repro.store.integrity`), so silent on-disk corruption —
  including a damaged or missing stamp — is detected at load time
  rather than resurfacing as a wrong answer;
* each save rotates the previous file to ``<path>.prev`` first, so a
  corrupted current checkpoint falls back to the last good one
  automatically (at-least-once delivery makes the older offset safe);
* the I/O is wrapped in named fault points
  (``checkpoint.save`` / ``checkpoint.load`` / ``checkpoint.bytes``)
  and an optional :class:`~repro.faults.retry.RetryPolicy`, so the
  chaos suite can prove all of the above under injected failures.
"""

import os

from repro.faults import call_with_retry, corrupt_point, fault_point
from repro.mining.index import ConceptIndex
from repro.obs import get_metrics
from repro.store.integrity import (
    EncodedList,
    IntegrityError,
    canonical_json,
    decode_stamped,
    encode_stamped,
)

#: Format version stamped into every checkpoint payload, and the only
#: one :meth:`Checkpointer.load` reads.  Version 3 carries the SHA-256
#: integrity stamp.
CHECKPOINT_VERSION = 3


class CheckpointCorrupt(ValueError):
    """Both the checkpoint and its previous-good copy are unusable."""


def index_to_state(index):
    """JSON-safe snapshot of a concept index.

    Documents are listed in insertion order with their full key sets
    and timestamps (and drill-down texts when the index keeps them),
    which is exactly what :func:`index_from_state` needs to rebuild an
    equal index.
    """
    return {
        "keep_documents": index.keeps_documents,
        "documents": [
            _document_state(index, doc_id, entry)
            for doc_id, entry in index.document_entries()
        ],
    }


def _document_state(index, doc_id, entry):
    """One document of :func:`index_to_state`, from its index entry."""
    state = {
        "doc_id": doc_id,
        "keys": sorted(list(key) for key in entry["keys"]),
        "timestamp": entry["timestamp"],
    }
    if index.keeps_documents:
        state["text"] = index.text_of(doc_id)
    return state


class IndexStateMemo:
    """:func:`index_to_state` that encodes each document once.

    :meth:`ConceptIndex.add_keys` gives every add or replace a fresh
    entry and never mutates one, so an entry's identity pins the
    document's state.  The memo maps an entry (keyed by ``id`` and
    holding a reference, so the id cannot be reused) to that state and
    its canonical JSON fragment.  Each call keeps only the entries it
    visited, so removed and replaced documents drop out; the entries
    of a restored index are new objects and miss once.
    """

    def __init__(self):
        """An empty memo."""
        self._memo = {}
        self.encoded = 0  # fragments encoded by the last call
        self.reused = 0  # fragments reused by the last call

    def index_state(self, index):
        """``index_to_state(index)``, its documents an :class:`EncodedList`."""
        memo = self._memo
        kept = {}
        documents = []
        fragments = []
        encoded = 0
        for doc_id, entry in index.document_entries():
            hit = memo.get(id(entry))
            if hit is None:
                state = _document_state(index, doc_id, entry)
                # The entry rides along so its id stays unique.
                hit = (entry, state, canonical_json(state))
                encoded += 1
            kept[id(entry)] = hit
            documents.append(hit[1])
            fragments.append(hit[2])
        self._memo = kept
        self.encoded = encoded
        self.reused = len(kept) - encoded
        return {
            "keep_documents": index.keeps_documents,
            "documents": EncodedList(documents, fragments),
        }


def index_from_state(state):
    """Rebuild a concept index from :func:`index_to_state`.

    Older version-3 snapshots of a hash-sharded index also carry a
    ``layout`` key, which is ignored: their ``documents`` list is
    already in global insertion order, so they rebuild into the same
    index an uninterrupted run holds.
    """
    index = ConceptIndex(keep_documents=state["keep_documents"])
    for entry in state["documents"]:
        index.add_keys(
            entry["doc_id"],
            [tuple(key) for key in entry["keys"]],
            timestamp=entry["timestamp"],
            text=entry.get("text"),
        )
    return index


class Checkpointer:
    """Atomic, checksummed save/load of one consumer's checkpoint.

    ``save`` stamps the payload with its checksum, rotates the current
    file to ``<path>.prev``, writes the new payload to ``<path>.tmp``
    and renames it over ``<path>`` — each step atomic, so any crash
    leaves at least one loadable copy.  ``load`` verifies the stamp
    and falls back to the previous copy when the current one is torn
    or corrupted; it returns ``None`` when no checkpoint exists yet (a
    fresh consumer), raises :class:`CheckpointCorrupt` when every copy
    fails verification, and raises ``ValueError`` on a payload whose
    format version this code does not understand.

    ``retry`` (a :class:`~repro.faults.retry.RetryPolicy`) makes both
    operations absorb transient ``OSError`` faults; ``sleep`` injects
    the backoff sleeper for tests.  The I/O passes through the
    ``checkpoint.save`` / ``checkpoint.load`` fault points and the
    ``checkpoint.bytes`` corruption point, which is how the chaos
    suite exercises every one of these paths.
    """

    def __init__(self, path, retry=None, sleep=None):
        """``path`` is the checkpoint file location."""
        self.path = os.fspath(path)
        self.prev_path = self.path + ".prev"
        self.retry = retry
        self._sleep = sleep

    def _run(self, fn, op):
        """Run one I/O closure, retried when a policy is configured."""
        if self.retry is None:
            return fn()
        return call_with_retry(
            fn, self.retry, sleep=self._sleep, op=op
        )

    def save(self, state):
        """Atomically persist one checkpoint payload.

        The payload is encoded once, canonically, by
        :func:`~repro.store.integrity.encode_stamped`.  The corruption
        point runs once per save (outside the retry loop), so a
        retried write lands the same bytes — corrupted or not — that
        the first attempt would have.
        """
        payload = dict(state)
        payload["version"] = CHECKPOINT_VERSION
        data = corrupt_point("checkpoint.bytes", encode_stamped(payload))
        tmp_path = self.path + ".tmp"

        def attempt():
            fault_point("checkpoint.save")
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            if os.path.exists(self.path):
                os.replace(self.path, self.prev_path)
            os.replace(tmp_path, self.path)

        self._run(attempt, op="checkpoint.save")
        return self

    def _read_verified(self, path):
        """One file's payload, stamp-verified; ``None`` if missing."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        return decode_stamped(data, source=f"checkpoint {path!r}")

    def load(self):
        """The last good payload, or ``None`` if none exists.

        A current checkpoint that fails integrity verification is
        counted (``checkpoint.corrupt``) and the previous-good copy is
        served instead (``checkpoint.fallback``); only when every copy
        is unusable does :class:`CheckpointCorrupt` propagate.
        """

        def attempt():
            fault_point("checkpoint.load")
            metrics = get_metrics()
            try:
                payload = self._read_verified(self.path)
            except IntegrityError as exc:
                metrics.counter("checkpoint.corrupt").inc()
                try:
                    payload = self._read_verified(self.prev_path)
                except IntegrityError:
                    payload = None
                if payload is None:
                    raise CheckpointCorrupt(
                        f"checkpoint {self.path!r} is corrupted and "
                        f"no previous good copy is available: {exc}"
                    ) from exc
                metrics.counter("checkpoint.fallback").inc()
                return payload
            if payload is None:
                # A crash between the two renames in save() can leave
                # only the rotated copy; honour it rather than
                # restarting from offset zero.
                try:
                    payload = self._read_verified(self.prev_path)
                except IntegrityError:
                    return None
                if payload is not None:
                    metrics.counter("checkpoint.fallback").inc()
            return payload

        payload = self._run(attempt, op="checkpoint.load")
        if payload is None:
            return None
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path!r} has format version "
                f"{version!r}; this build reads version "
                f"{CHECKPOINT_VERSION}"
            )
        return payload

    def exists(self):
        """True when a checkpoint file is present."""
        return os.path.exists(self.path)

    def clear(self):
        """Delete the checkpoint file (and its rotated copy)."""
        for path in (self.path, self.prev_path):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return self

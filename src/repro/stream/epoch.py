"""Epoch snapshots: immutable, versioned views of the live index.

The serving layer answers analytic queries *while* a
:class:`~repro.stream.consumer.StreamConsumer` keeps ingesting.  The
bridge between the two is the epoch protocol this module implements:

* at every commit boundary the consumer **publishes** the live concept
  index into an :class:`EpochStore` — the store takes an immutable
  copy-on-write :meth:`~repro.mining.index.ConceptIndex.snapshot`
  and stamps it with the committed source offset as its **epoch**;
* readers take :meth:`EpochStore.current` and compute against that
  frozen view; nothing they can do observes a half-applied micro-batch,
  and the epoch travels with every response so callers know exactly
  which prefix of the stream they were answered from;
* publication is atomic (one lock-protected reference swap), so a
  reader holds either the old epoch or the new one — never a blend.

The store retains a bounded history of recent snapshots (``history``;
``None`` = unbounded) so correctness checks can re-run a query's batch
reference computation against the exact epoch that answered it.
"""

import threading
from dataclasses import dataclass

from repro.obs import get_metrics


@dataclass(frozen=True)
class EpochSnapshot:
    """One published epoch: a frozen index plus its version stamps.

    ``epoch`` is the stream's committed source offset at publication
    (-1 for the initial empty publication); ``seq`` is the dense
    publication counter (0, 1, 2, ... regardless of offsets skipped by
    batching).  ``index`` is an immutable snapshot honouring the full
    read side of the index contract.
    """

    epoch: int
    seq: int
    index: object

    def stats(self):
        """The snapshot index's structural counters plus the stamps."""
        payload = dict(self.index.stats())
        payload["epoch"] = self.epoch
        payload["seq"] = self.seq
        return payload


class EpochStore:
    """Thread-safe holder of the current (and recent) epoch snapshots.

    One writer (the stream consumer) publishes; any number of readers
    take :meth:`current` concurrently.  The lock protects only the
    reference swap and history bookkeeping — readers never block while
    a micro-batch is being applied, because the live index is never
    what they see.
    """

    def __init__(self, history=8):
        """``history`` bounds retained snapshots (``None`` = keep all)."""
        if history is not None and history < 1:
            raise ValueError("history must be >= 1 (or None)")
        self._history_limit = history
        self._lock = threading.Lock()
        self._current = None
        self._history = {}
        self._order = []
        self._seq = 0

    def publish(self, index, epoch):
        """Publish ``index`` (snapshotted here) at ``epoch``.

        Called by the consumer at each commit boundary.  Re-publishing
        the current epoch (e.g. a restore straight after a final
        checkpoint) replaces the snapshot in place without burning a
        history slot.  Returns the :class:`EpochSnapshot`.
        """
        metrics = get_metrics()
        with self._lock:
            if self._current is not None and epoch < self._current.epoch:
                raise ValueError(
                    f"epoch {epoch} regresses below published epoch "
                    f"{self._current.epoch}; epochs must be monotonic"
                )
            snapshot = EpochSnapshot(
                epoch=epoch, seq=self._seq, index=index.snapshot()
            )
            self._seq += 1
            self._current = snapshot
            if epoch not in self._history:
                self._order.append(epoch)
            self._history[epoch] = snapshot
            if (
                self._history_limit is not None
                and len(self._order) > self._history_limit
            ):
                evicted = self._order.pop(0)
                del self._history[evicted]
        stats = snapshot.index.stats()
        metrics.counter("epoch.published").inc()
        metrics.gauge("epoch.current").set(epoch)
        metrics.gauge("epoch.documents").set(stats["documents"])
        metrics.gauge("epoch.concepts").set(stats["concepts"])
        return snapshot

    def current(self):
        """The latest published :class:`EpochSnapshot`.

        Raises :class:`LookupError` before the first publication — a
        serving layer must publish its (possibly empty) initial state
        before accepting queries.
        """
        with self._lock:
            if self._current is None:
                raise LookupError("no epoch published yet")
            return self._current

    def at(self, epoch):
        """The retained snapshot published at ``epoch``.

        Raises :class:`KeyError` when that epoch was never published
        or has been evicted from the bounded history.
        """
        with self._lock:
            try:
                return self._history[epoch]
            except KeyError:
                raise KeyError(
                    f"epoch {epoch} is not in the retained history"
                ) from None

    def epochs(self):
        """Epoch ids currently retained, oldest first."""
        with self._lock:
            return list(self._order)

    def __len__(self):
        with self._lock:
            return len(self._order)

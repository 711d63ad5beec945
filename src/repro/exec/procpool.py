"""The multiprocess backend: a warm ProcessPoolExecutor behind ``map``.

:class:`ProcessBackend` escapes the GIL for CPU-bound fan-out — the
paper's workloads (concept indexing, association mining, churn
analysis) are pure Python compute, where thread pools only interleave.

The contract stacks three guarantees on top of
:class:`~repro.exec.backend.ExecBackend`:

* **Picklable task envelopes** — everything shipped to a worker must
  pickle, which is why callers hand this backend module-level envelope
  objects (the engine's stage task), never span-opening closures.  An
  unpicklable payload raises a clear
  :class:`~repro.exec.backend.BackendError` naming the work unit
  *before* any task is submitted, so a poisoned payload can never
  wedge the warm pool.
* **Chunked, order-preserving map** — tasks travel in contiguous
  chunks (``ceil(n / (workers * 4))`` by default, so each worker sees
  a handful of chunks for load balance) and results come back in
  submission order regardless of completion order, keeping every
  caller's left-fold merge bit-identical to serial.
* **Worker warm-reuse and clean teardown** — the pool spawns lazily on
  the first real fan-out and is reused across calls; ``close`` (also
  run by context-exit and on ``KeyboardInterrupt`` during a map) shuts
  it down so no worker process outlives its backend.

A task that raises in a worker propagates the *original* exception to
the caller, with the worker-side traceback chained on (the stdlib
attaches it as ``__cause__``), so an injected ``fault_point`` crash in
one worker reads exactly like the serial failure would.

Spawn-safety: envelopes are defined at module level and hold only
picklable state, so the backend works under the ``spawn`` start method
(fresh interpreters) as well as ``fork``.  Result determinism does not
depend on the child interpreter's hash randomization — every analytic
sorts its result before emitting it — which is asserted by the
equivalence suites in ``tests/prop`` and ``tests/exec``.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from threading import Lock

from repro.exec.backend import BackendError, ExecBackend, _materialize


class ProcessBackend(ExecBackend):
    """A warm, reused :class:`ProcessPoolExecutor` behind ``map``.

    ``workers`` is the pool width; ``chunk_size`` overrides the
    computed chunking; ``mp_context`` selects the multiprocessing
    start method (``"fork"`` / ``"spawn"`` / ``"forkserver"`` or a
    ready context object; ``None`` keeps the platform default).
    ``workers <= 1`` — or a single task — degrades to inline
    execution without ever spawning a pool.
    """

    kind = "process"

    def __init__(self, workers, chunk_size=None, mp_context=None):
        """See the class docstring for the knobs."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self._mp_context = mp_context
        self._pool = None
        self._pool_lock = Lock()

    def effective_workers(self):
        """The configured pool width."""
        return self.workers

    def _ensure_pool(self):
        """The warm pool, spawned lazily on first real fan-out.

        Locked, so threads racing into their first ``map`` share one
        pool instead of each spawning (and leaking) their own.
        """
        with self._pool_lock:
            if self._pool is None:
                context = self._mp_context
                if isinstance(context, str):
                    context = get_context(context)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            return self._pool

    def _chunk_for(self, count):
        """Chunk size for ``count`` tasks (about 4 chunks per worker)."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-count // (self.workers * 4)))

    def _preflight(self, fn, label):
        """Refuse an unpicklable task callable before submission.

        Failing here — instead of deep inside the executor's feeder
        thread — yields one clear error naming the work unit and
        leaves the warm pool healthy for the next caller.
        """
        try:
            pickle.dumps(fn)
        except Exception as exc:
            what = label if label is not None else repr(fn)
            raise BackendError(
                f"{what} is not picklable and cannot cross the process "
                f"boundary ({exc}); run it with one worker (the "
                f"serial backend), or make the payload picklable"
            ) from exc

    def map(self, fn, *columns, label=None):
        """Chunked order-preserving map on the warm process pool.

        A worker-side exception re-raises here as the original
        exception type with the remote traceback chained; the pool
        stays warm.  ``KeyboardInterrupt`` while collecting results
        shuts the pool down before propagating.
        """
        made, count = _materialize(columns)
        if self.workers <= 1 or count <= 1:
            results = [fn(*args) for args in zip(*made)]
            self._record(count)
            return results
        self._preflight(fn, label)
        chunk = self._chunk_for(count)
        pool = self._ensure_pool()
        try:
            results = list(pool.map(fn, *made, chunksize=chunk))
        except KeyboardInterrupt:
            self.close()
            raise
        except BrokenProcessPool as exc:
            self.close()
            what = label if label is not None else repr(fn)
            raise BackendError(
                f"process pool died while executing {what}; the pool "
                f"was shut down (a fresh map will respawn it)"
            ) from exc
        self._record(count, chunks=-(-count // chunk))
        return results

    def close(self):
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

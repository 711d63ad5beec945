"""The execution-backend protocol and its inline implementation.

:class:`ExecBackend` is the one contract every parallel hot path codes
against: an **order-preserving** ``map`` over equal-length column
iterables, plus lifecycle (``close`` / context manager) and a few
introspection hooks.  Order preservation is the load-bearing clause —
callers fold results left-to-right in submission order, so any backend
satisfying it is bit-identical to serial execution by construction.

:class:`SerialBackend` here runs every task inline; it is the
reference semantics.  The one implementation that fans out, a warm
process pool, lives in :mod:`repro.exec.procpool`;
:func:`~repro.exec.make_backend`, which needs both, lives in the
package ``__init__``.

Observability is write-only: each fan-out records the backend kind,
worker count and task/chunk counts on the ambient metrics registry and
never feeds anything back into results.
"""

from repro.obs import get_metrics

#: Backend names accepted by :func:`make_backend`.
BACKEND_KINDS = ("serial", "process")


class BackendError(RuntimeError):
    """A task payload the backend cannot execute (e.g. unpicklable)."""


class ExecBackend:
    """Order-preserving task fan-out behind one ``map`` call.

    Subclasses implement :meth:`map`; everything else has working
    defaults.  A backend that can fan out ships its tasks to worker
    processes, so callers hand it picklable callables and arguments.
    """

    #: Kind label recorded in metrics and span tags.
    kind = "backend"

    def effective_workers(self):
        """How many tasks can run concurrently (1 = inline)."""
        return 1

    def can_fan_out(self):
        """True when ``map`` may actually run tasks concurrently."""
        return self.effective_workers() > 1

    def map(self, fn, *columns, label=None):
        """``[fn(*args) for args in zip(*columns)]``, order preserved.

        ``label`` names the work unit (a stage, an analytic) for error
        messages and has no effect on execution.  Results come back in
        submission order regardless of completion order — the property
        every caller's left-fold merge relies on.
        """
        raise NotImplementedError

    def close(self):
        """Release owned executors (idempotent; no-op by default)."""
        return None

    def __enter__(self):
        """Context manager: the backend itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit always closes — ``KeyboardInterrupt``
        included, so an interrupted run never strands workers."""
        self.close()
        return False

    def _record(self, tasks, chunks=1):
        """Write-only metrics for one fan-out (never read back)."""
        metrics = get_metrics()
        metrics.counter(f"exec.map.{self.kind}").inc()
        metrics.counter("exec.tasks").inc(tasks)
        metrics.gauge("exec.workers").set(self.effective_workers())
        metrics.gauge("exec.chunks").set(chunks)


def _materialize(columns):
    """Concrete equal-length argument columns for one ``map`` call."""
    made = [list(column) for column in columns]
    lengths = {len(column) for column in made}
    if len(lengths) > 1:
        raise ValueError(
            f"map columns must have equal lengths, got {sorted(lengths)}"
        )
    return made, (lengths.pop() if lengths else 0)


class SerialBackend(ExecBackend):
    """Inline execution — the reference every backend must match."""

    kind = "serial"

    def map(self, fn, *columns, label=None):
        """Run every task inline, in order."""
        made, count = _materialize(columns)
        results = [fn(*args) for args in zip(*made)]
        self._record(count)
        return results

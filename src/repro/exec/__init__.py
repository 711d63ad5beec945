"""Pluggable execution backends: serial, thread and process fan-out.

One protocol — :class:`~repro.exec.backend.ExecBackend` with an
order-preserving ``map`` — behind the reproduction's parallel hot
path, the engine's pure-stage batches.  The backends differ only in
*where* tasks run (inline, a warm thread pool, a warm process pool);
because every caller folds results in submission order, each backend
is bit-identical to serial execution.

Callers take one ``backend`` argument (``None`` = inline) and never
build or close a backend themselves: :func:`make_backend` turns the
user's ``(kind, workers)`` choice into one, inside a ``with``, at the
entry point that carries the configuration — whoever builds a backend
closes it.

See DESIGN.md §15 for the protocol, the pickling contract of the
process backend and the merge-determinism argument.
"""

from repro.exec.backend import (
    BACKEND_KINDS,
    BackendError,
    ExecBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.exec.procpool import ProcessBackend


def make_backend(kind, workers=0):
    """Build a backend by name (:data:`~repro.exec.BACKEND_KINDS`).

    ``workers`` sizes the thread/process pools; 0 and 1 both mean a
    one-wide pool, which runs inline and never spawns workers.
    """
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r}; choose from {list(BACKEND_KINDS)}"
        )
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if kind == "serial":
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(max(1, workers))
    return ProcessBackend(max(1, workers))


__all__ = [
    "BACKEND_KINDS",
    "BackendError",
    "ExecBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
]

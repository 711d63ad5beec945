"""Execution backends: inline or process fan-out.

One protocol — :class:`~repro.exec.backend.ExecBackend` with an
order-preserving ``map`` — behind the reproduction's parallel hot
path, the engine's pure-stage batches.  The two backends differ only
in *where* tasks run (inline, or a warm process pool); because every
caller folds results in submission order, the process backend is
bit-identical to serial execution.  There is no thread backend: the
pipeline is pure-Python compute, so threads only interleave under the
GIL and never beat inline execution.

Callers take one ``backend`` argument (``None`` = inline) and never
build or close a backend themselves: :func:`make_backend` turns the
user's worker count into one, inside a ``with``, at the entry point
that carries the configuration — whoever builds a backend closes it.

See DESIGN.md §15 for the protocol, the pickling contract of the
process backend and the merge-determinism argument.
"""

from repro.exec.backend import (
    BACKEND_KINDS,
    BackendError,
    ExecBackend,
    SerialBackend,
)
from repro.exec.procpool import ProcessBackend


def make_backend(kind, workers=0):
    """Build a backend by name (:data:`~repro.exec.BACKEND_KINDS`).

    ``workers`` alone decides whether work fans out: 0 and 1 build a
    :class:`SerialBackend` whatever the kind, and ``"process"`` with
    more workers builds a :class:`ProcessBackend` that wide.
    """
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r}; choose from {list(BACKEND_KINDS)}"
        )
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if kind == "serial" or workers <= 1:
        return SerialBackend()
    return ProcessBackend(workers)


__all__ = [
    "BACKEND_KINDS",
    "BackendError",
    "ExecBackend",
    "ProcessBackend",
    "SerialBackend",
    "make_backend",
]

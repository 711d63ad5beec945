"""The ambient observability slots: one tracer, one registry.

Hot paths deep inside the library (a Fagin merge, an EM iteration, a
constrained second-pass decode) cannot reasonably have a tracer
threaded through every call signature, so they fetch the *ambient*
tracer and metrics registry instead:

    from repro.obs import get_metrics, get_tracer

    with get_tracer().span("fagin:merge", category="linking"):
        ...
        get_metrics().counter("linking.fagin.merges").inc()

Both slots default to the null implementations, which cost a function
call and nothing else — an unobserved run does not allocate, lock or
time anything.  :func:`activated` swaps real collectors in for the
duration of a ``with`` block (the CLI's ``bivoc trace`` / ``--trace``
do exactly this around one command) and always restores the previous
slots, even on error.

Activation is intended for the top of a run (CLI entry, a test), not
for concurrent per-thread scopes: threads spawned inside an activated
block observe the same collectors, which is what puts ``bivoc
serve``'s request and ingest threads in one trace.
"""

from contextlib import contextmanager

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER

_active_tracer = NULL_TRACER
_active_metrics = NULL_METRICS


def get_tracer():  # bivoc: effects[ambient-obs]
    """The ambient tracer (the null tracer unless activated).

    Declared ``ambient-obs`` for ``bivoc effects``: reading the slot
    is how code opts into the ambient observability channel, and the
    effect checker treats that channel as thread-safe by contract.
    """
    return _active_tracer


def get_metrics():  # bivoc: effects[ambient-obs]
    """The ambient metrics registry (null unless activated).

    Declared ``ambient-obs`` for ``bivoc effects`` — see
    :func:`get_tracer`.
    """
    return _active_metrics


@contextmanager
def activated(tracer=None, metrics=None):
    """Swap the ambient collectors in for one ``with`` block.

    Passing ``None`` for either slot leaves that slot untouched.
    Yields ``(tracer, metrics)`` as resolved, and restores the
    previous slots on exit no matter how the block ends.
    """
    global _active_tracer, _active_metrics
    previous = (_active_tracer, _active_metrics)
    if tracer is not None:
        _active_tracer = tracer
    if metrics is not None:
        _active_metrics = metrics
    try:
        yield (_active_tracer, _active_metrics)
    finally:
        _active_tracer, _active_metrics = previous

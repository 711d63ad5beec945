"""How every mining analytic runs: one counting pass, then arithmetic.

Every mining analytic is a count over the documents of one concept
index followed by arithmetic on those counts.  Each analytic module
therefore has one module-level counting function, which returns
integers only, and one result constructor, which derives every float
once from those integers.  An :class:`Analytic` pairs the two, and
:func:`compute` runs it under an ``analytic:<name>`` span and counts
the run on ``mining.analytics`` and ``mining.partials`` — write-only
observability, exactly like the engine's.

Each analytic is constructed with ``pure=True``, as an engine
``FunctionStage`` is, so ``bivoc effects`` checks the construction
through its counting callable down to the counting function: a count
that wrote shared state would fail the gate.  That check is what lets
``bivoc serve`` answer queries from concurrent request threads over
one snapshot.
"""

from repro.obs import get_metrics, get_tracer


class Analytic:
    """One analytic: a counting pass and the result built from it.

    ``fn(index)`` counts; ``result(counts)`` derives the analytic's
    result.  ``pure`` declares the counting pass free of shared-state
    writes, and ``bivoc effects`` verifies it per construction.
    """

    pure = True

    def __init__(self, name, fn, result, pure):
        """``name`` labels the span; see the class docstring."""
        self.name = name
        self.fn = fn
        self.result = result
        self.pure = pure

    def process(self, index):
        """The counting pass: the index's counts, integers only."""
        return self.fn(index)


def compute(analytic, index):
    """Run one analytic over an index: count, then build the result.

    Everything recorded on the ambient tracer and metrics is
    write-only and never feeds back into the result.
    """
    with get_tracer().span(
        f"analytic:{analytic.name}",
        category="mining",
        tags={"docs": len(index)},
    ):
        result = analytic.result(analytic.process(index))
    metrics = get_metrics()
    metrics.counter("mining.analytics").inc()
    metrics.counter("mining.partials").inc()
    return result

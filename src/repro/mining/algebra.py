"""The aggregate form every mining analytic runs through.

Every mining analytic is a count over the documents of one concept
index followed by arithmetic on those counts, so each one is written
as two steps:

    ``partial(index) → finalize(state, index)``

:meth:`PartialAggregate.partial` does the counting and returns
integers only; :meth:`PartialAggregate.finalize` derives every float,
once, from those integers.  :func:`compute` executes the pair.  Each
analytic run opens an ``analytic:<name>`` span and counts itself on
``mining.analytics`` and its one partial on ``mining.partials`` —
write-only observability, exactly like the engine's.

Aggregates double as ``bivoc effects`` subjects: the base class
declares ``pure = True`` and aliases the engine's ``process`` entry to
``partial``, so the checker structurally discovers every concrete
aggregate and verifies its counting pass is free of shared-state
writes — the property that lets ``bivoc serve`` answer queries from
concurrent request threads over one snapshot.
"""

from repro.obs import get_metrics, get_tracer


class PartialAggregate:
    """One mining analytic in partial/finalize form.

    * :meth:`partial` — the index's counts, *integers only*;
    * :meth:`finalize` — derive the analytic's result (all float math
      happens here, once, from the counts).

    ``pure``/``process`` make every aggregate a structurally
    discovered ``bivoc effects`` stage: the counting pass must not
    write shared state.
    """

    #: Analytic name, used for span labels and metrics.
    analytic = "aggregate"
    #: Effect contract of :meth:`partial` (checked by ``bivoc effects``).
    pure = True

    def partial(self, index):
        """The index's counts (pure: reads the index only)."""
        raise NotImplementedError

    def finalize(self, state, index):
        """The analytic's result from the counted ``state``.

        ``index`` is kept for results that hold a drill-down handle;
        counting must already be done.
        """
        raise NotImplementedError

    def process(self, index):
        """Engine-protocol alias of :meth:`partial`.

        Exists so ``bivoc effects`` discovers the aggregate as a stage
        and verifies the declared ``pure`` flag against the partial's
        inferred effects.
        """
        return self.partial(index)


def compute(aggregate, index, tracer=None, metrics=None):
    """Execute one aggregate over an index.

    ``tracer``/``metrics`` default to the ambient observability
    collectors; everything recorded is write-only and never feeds back
    into the result.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    with tracer.span(
        f"analytic:{aggregate.analytic}",
        category="mining",
        tags={"docs": len(index)},
    ):
        result = aggregate.finalize(aggregate.partial(index), index)
    metrics.counter("mining.analytics").inc()
    metrics.counter("mining.partials").inc()
    return result

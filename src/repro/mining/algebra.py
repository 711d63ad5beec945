"""The partial-aggregate algebra: per-shard partials, exact merges.

Every mining analytic is a count over documents, and the shards of a
:class:`~repro.mining.sharded.ShardedConceptIndex` partition the
documents — so per-shard counts *sum exactly* to the whole-index
counts, and any analytic expressed as

    ``identity() → partial(shard) → merge(a, b) → finalize(state, index)``

is **bit-identical** to its single-index form: all integers are merged
by exact addition and every float is derived once, in ``finalize``,
from the merged integers — the same arithmetic, in the same order, as
the unsharded code path.  That is the monoid contract
:class:`PartialAggregate` pins down and
:func:`compute` executes.

``compute`` runs the partials serially by default, or order-preserved
across an injected execution backend (see :mod:`repro.exec`) — the
thread or the multiprocess backend.  Because ``merge`` folds the
partials left-to-right in shard order either way, parallel execution
is bit-identical to serial on every backend.  On
the process backend the *partial states* cross the boundary, never the
finalized results: states are integers only (exactly picklable, no
float representation to disturb) and ``merge``/``finalize`` run in the
parent, so the float derivation happens once, in one process, in the
same order as serial.  Each analytic run opens an ``analytic:<name>``
span with per-shard ``analytic:partial`` children and one
``analytic:merge`` child, and reports shard-count and skew gauges —
write-only observability, exactly like the engine's.  (Partial child
spans are skipped on process backends, where the parent tracer is
unreachable from a worker; write-only observability means that cannot
change any result.)

Aggregates double as ``bivoc effects`` subjects: the base class
declares ``pure = True`` and aliases the engine's ``process`` entry to
``partial``, so the checker structurally discovers every concrete
aggregate and verifies its partial chain is free of shared-state
writes — the property that makes the thread-pool fan-out safe.
"""

from repro.obs import get_metrics, get_tracer


class _PartialTask:
    """Picklable envelope computing one shard's partial state.

    Defined at module level (spawn-safe) and holding only the
    aggregate, so it crosses process boundaries whenever the aggregate
    pickles; the returned state is integers only, so the result
    round-trips exactly.
    """

    def __init__(self, aggregate):
        """``aggregate`` is the PartialAggregate to apply per shard."""
        self.aggregate = aggregate

    def __call__(self, shard):
        """One shard's partial state."""
        return self.aggregate.partial(shard)


def iter_shards(index):
    """The per-shard iteration units of an index.

    A sharded index yields its sub-indexes; a single index is its own
    (only) shard — so every analytic runs through the same algebra
    regardless of layout, and a 1-shard run is the degenerate case.
    """
    shards = getattr(index, "shards", None)
    if shards is None:
        return [index]
    return list(shards)


def merge_counts(accumulated, update):
    """Sum two ``{key: int}`` maps into a fresh dict.

    The workhorse monoid merge: counts over disjoint document
    partitions add exactly, so this is lossless.
    """
    merged = dict(accumulated)
    for key, value in update.items():
        merged[key] = merged.get(key, 0) + value
    return merged


class PartialAggregate:
    """One mining analytic in partial/merge/finalize form.

    The contract is a commutative monoid over per-shard states:

    * :meth:`identity` — the empty state (merging it changes nothing);
    * :meth:`partial` — one shard's contribution, *integers only*;
    * :meth:`merge` — combine two states without loss (sums);
    * :meth:`finalize` — derive the analytic's result (all float math
      happens here, once, from the merged integers).

    ``pure``/``process`` make every aggregate a structurally
    discovered ``bivoc effects`` stage: partials must not write shared
    state, which is exactly what lets :func:`compute` fan them across
    the engine's thread pool with bit-identical results.
    """

    #: Analytic name, used for span labels and metrics.
    analytic = "aggregate"
    #: Effect contract of :meth:`partial` (checked by ``bivoc effects``).
    pure = True

    def identity(self):
        """The empty (neutral) partial state."""
        raise NotImplementedError

    def partial(self, shard):
        """One shard's partial state (pure: reads the shard only)."""
        raise NotImplementedError

    def merge(self, accumulated, update):
        """Combine two partial states into a fresh one (exact sums)."""
        raise NotImplementedError

    def finalize(self, state, index):
        """The analytic's result from the fully merged ``state``.

        ``index`` is the whole index (not one shard) for results that
        keep a drill-down handle; counting must already be done.
        """
        raise NotImplementedError

    def process(self, shard):
        """Engine-protocol alias of :meth:`partial`.

        Exists so ``bivoc effects`` discovers the aggregate as a stage
        and verifies the declared ``pure`` flag against the partial's
        inferred effects.
        """
        return self.partial(shard)


def compute(aggregate, index, backend=None, tracer=None, metrics=None):
    """Execute one aggregate over an index through the algebra.

    Partials run per shard — serially, or order-preserved on the
    injected :class:`~repro.exec.ExecBackend` (typically the one the
    engine run used; left open) when the index has more than one
    shard — then merge left-to-right in shard order from
    :meth:`PartialAggregate.identity`, so the fold order (and
    therefore the result) never depends on scheduling.  On backends
    that pickle across a process boundary, the integer partial
    *states* travel back and ``merge``/``finalize`` run here, in the
    parent (see the module docstring).

    ``tracer``/``metrics`` default to the ambient observability
    collectors; everything recorded is write-only and never feeds back
    into the result.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    shards = iter_shards(index)
    with tracer.span(
        f"analytic:{aggregate.analytic}",
        category="mining",
        tags={"shards": len(shards), "docs": len(index)},
    ) as run_span:

        def run_partial(number, shard):
            # Explicit parent: pool threads have no span stack.
            with tracer.span(
                "analytic:partial",
                category="mining",
                tags={"shard": number, "docs": len(shard)},
                parent=run_span,
            ):
                return aggregate.partial(shard)

        fan_out = (
            backend is not None
            and backend.can_fan_out()
            and len(shards) > 1
        )
        if fan_out and backend.requires_pickling:
            # Ship the envelope, get integer states back in shard
            # order; merge and finalize stay in this process.
            partials = backend.map(
                _PartialTask(aggregate),
                shards,
                label=f"analytic:{aggregate.analytic}",
            )
        elif fan_out:
            # Order-preserving map: results come back in shard order,
            # so the merge fold below is identical to the serial path.
            partials = backend.map(
                run_partial,
                range(len(shards)),
                shards,
                label=f"analytic:{aggregate.analytic}",
            )
        else:
            partials = [
                run_partial(number, shard)
                for number, shard in enumerate(shards)
            ]
        with tracer.span(
            "analytic:merge",
            category="mining",
            tags={"partials": len(partials)},
            parent=run_span,
        ):
            state = aggregate.identity()
            for part in partials:
                state = aggregate.merge(state, part)
            result = aggregate.finalize(state, index)
    metrics.counter("mining.analytics").inc()
    metrics.counter("mining.partials").inc(len(shards))
    metrics.gauge("mining.shards").set(len(shards))
    sizes = [len(shard) for shard in shards]
    total = sum(sizes)
    if total and len(sizes) > 1:
        # Skew = largest shard / ideal even share (1.0 = perfectly even).
        metrics.gauge("mining.shard_skew").set(
            max(sizes) * len(sizes) / total
        )
    return result

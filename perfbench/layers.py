"""Per-layer accounting for the traced run, from outside the program.

The program already opens spans at its stage, merge, stream, query and
analytic boundaries; the layers that dominate its cost (annotation,
linking internals, cleaning, candidate generation) are uninstrumented.
:func:`instrumented` wraps those public calls for the length of a
``with`` block and restores every original on exit.

Every wrapped call and every program span passes through one
:class:`Meter`, which keeps per-key call counts and inclusive seconds
and per-layer self seconds (a region's time minus the time of the
regions nested directly inside it).  Hot calls (similarity, one word
of spelling, one pattern) are metered only; coarser ones also open a
tracer span so they appear in the exported Chrome trace.
"""

import functools
import json
import math
import pickle
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.obs import Tracer
from spec import LAYERS, STAGES


class Meter:
    """Calls, inclusive time and per-layer self time of nested regions.

    Single-threaded by design: the benchmark drives the program from
    one thread, and work done in worker processes is seen only as the
    parent's time inside ``exec.map``.
    """

    def __init__(self):
        """An empty meter."""
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._open = Counter()

    def enter(self, key, layer):
        """Open one region; returns the frame to pass to :meth:`exit`."""
        frame = [key, layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[key] += 1
        return frame

    def exit(self, frame):
        """Close ``frame``: count it and charge its time."""
        elapsed = time.perf_counter() - frame[2]
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        else:
            self._stack.remove(frame)
        key = frame[0]
        self._open[key] -= 1
        self.calls[key] += 1
        if not self._open[key]:  # a recursive re-entry is counted once
            self.seconds[key] += elapsed
        self.self_seconds[frame[1]] += elapsed - frame[3]
        if self._stack:
            self._stack[-1][3] += elapsed

    def snapshot(self):
        """A copy of every total, for differences between two points."""
        return {
            "calls": Counter(self.calls),
            "seconds": dict(self.seconds),
            "self": dict(self.self_seconds),
            "counts": Counter(self.counts),
        }


#: Program span categories are the layer names, except these.
_CATEGORY_LAYERS = {"": "other"}


class _MeteredSpan:
    """A program or wrapper span that is also a :class:`Meter` region."""

    __slots__ = ("_inner", "_meter", "_key", "_layer", "_frame")

    def __init__(self, inner, meter, key, layer):
        self._inner = inner
        self._meter = meter
        self._key = key
        self._layer = layer
        self._frame = None

    def __enter__(self):
        self._frame = self._meter.enter(self._key, self._layer)
        return self._inner.__enter__()

    def __exit__(self, exc_type, exc, tb):
        try:
            return self._inner.__exit__(exc_type, exc, tb)
        finally:
            self._meter.exit(self._frame)


class LayerTracer(Tracer):
    """A :class:`~repro.obs.Tracer` whose spans also feed a meter.

    A span's key is its name and its layer its category, so the
    program's ``stage:annotate`` spans are charged to ``engine`` and
    its ``fagin:threshold`` spans to ``linking``.
    """

    def __init__(self, meter):
        """Spans recorded here are also metered into ``meter``."""
        super().__init__()
        self.meter = meter

    def span(self, name, category="", tags=None, parent=None):
        """The recorded span, metered for its whole extent."""
        layer = _CATEGORY_LAYERS.get(category, category)
        return _MeteredSpan(
            super().span(name, category, tags, parent),
            self.meter, name, layer,
        )


# ----------------------------------------------------------------------
# what each wrapper counts besides calls and time
# ----------------------------------------------------------------------

def _count_tokens(counts, args, document):
    counts["annotation.tokens"] += len(document.tokens)


def _count_windows(counts, args, concepts):
    pattern, tokens = args[0], args[1]
    counts["annotation.patterns.windows"] += max(
        0, len(tokens) - len(pattern.elements) + 1
    )
    counts["annotation.patterns.hits"] += len(concepts)


def _count_linked(counts, args, result):
    counts["linking.linked"] += result.linked


def _count_entries(counts, args, result):
    counts["linking.list_entries"] += sum(len(ranked) for ranked in result[0])


def _count_typed(counts, args, tokens):
    counts["linking.typed_tokens"] += len(tokens)


def _count_similarity(counts, args, score):
    counts[f"linking.similarity.calls.{args[1].name.lower()}"] += 1
    counts["linking.similarity.nonzero"] += score > 0.0


def _count_returned(counts, args, entities):
    counts["store.candidates.returned"] += len(entities)


def _count_kept(counts, args, cleaned):
    counts["cleaning.kept"] += not cleaned.discarded


def _count_changed(counts, args, corrected):
    counts["cleaning.spelling.changed"] += corrected != args[1]


def _count_checkpoint_bytes(counts, args, result):
    """JSON bytes of the saved state, less the report's wall-time stamp.

    The file also holds the consumer's report, whose wall time changes
    length from run to run; the rest is the index and window state.
    """
    state = args[1]
    counts["stream.checkpoint.bytes"] += len(json.dumps(
        {name: value for name, value in state.items() if name != "report"}
    ))


def _count_pickled(counts, args):
    """Bytes a process-pool ``map`` ships: the task once per chunk.

    Mirrors ``ProcessPoolExecutor.map``, which pickles the callable
    with every chunk of argument tuples.  Inline maps ship nothing.
    """
    backend, fn, columns = args[0], args[1], args[2:]
    if not all(isinstance(column, (list, tuple, range)) for column in columns):
        return  # never consume an iterator the real call needs
    rows = list(zip(*columns))
    if backend.workers <= 1 or len(rows) <= 1:
        return
    chunk = backend.chunk_size or math.ceil(len(rows) / (backend.workers * 4))
    counts["exec.tasks"] += len(rows)
    for start in range(0, len(rows), chunk):
        counts["exec.chunks"] += 1
        counts["exec.pickled_bytes"] += len(
            pickle.dumps((fn, rows[start:start + chunk]))
        )


def _targets():
    """(owner, attribute, key, layer, spanned, count-after, count-before)."""
    from repro.annotation import matcher
    from repro.annotation.dictionary import DomainDictionary
    from repro.annotation.matcher import AnnotationEngine
    from repro.annotation.patterns import Pattern
    from repro.annotation.pos import PosTagger
    from repro.cleaning.pipeline import CleaningPipeline
    from repro.cleaning.spelling import SpellCorrector
    from repro.exec.procpool import ProcessBackend
    from repro.linking.annotators import AnnotatorSuite
    from repro.linking.similarity import SimilarityRegistry
    from repro.linking.single import EntityLinker
    from repro.mining import assoc2d, olap, relfreq, trends
    from repro.mining.index import ConceptIndex
    from repro.serve import engine as serve_engine
    from repro.store.database import Database
    from repro.stream.checkpoint import Checkpointer
    from repro.stream.epoch import EpochStore
    from repro.stream.window import WindowedAnalytics

    read = "stream.window.read"
    return [
        (AnnotationEngine, "annotate", "annotation.annotate", "annotation",
         True, _count_tokens, None),
        (matcher, "tokenize", "annotation.tokenize", "annotation",
         False, None, None),
        (PosTagger, "tag", "annotation.pos", "annotation", False, None, None),
        (DomainDictionary, "match", "annotation.dictionary", "annotation",
         False, None, None),
        (Pattern, "match", "annotation.patterns", "annotation",
         False, _count_windows, None),
        (EntityLinker, "link", "linking.link", "linking",
         True, _count_linked, None),
        (EntityLinker, "ranked_lists", "linking.ranked_lists", "linking",
         True, _count_entries, None),
        (AnnotatorSuite, "annotate", "linking.annotators", "linking",
         False, _count_typed, None),
        (SimilarityRegistry, "similarity", "linking.similarity", "linking",
         False, _count_similarity, None),
        (Database, "candidates", "store.candidates", "store",
         True, _count_returned, None),
        (Database, "build_indexes", "store.build_indexes", "store",
         True, None, None),
        (CleaningPipeline, "clean", "cleaning.clean", "cleaning",
         True, _count_kept, None),
        (SpellCorrector, "correct", "cleaning.spelling", "cleaning",
         False, None, None),
        (SpellCorrector, "correct_word", "cleaning.spelling.word",
         "cleaning", False, _count_changed, None),
        *((module, "compute", "mining.compute", "mining", False, None, None)
          for module in (assoc2d, olap, relfreq, trends)),
        (ConceptIndex, "add", "mining.index.add", "mining", False, None, None),
        (WindowedAnalytics, "ingest", "stream.window.ingest", "stream",
         False, None, None),
        *((WindowedAnalytics, name, read, "stream", True, None, None)
          for name in ("assoc_snapshot", "relfreq_snapshot",
                       "emerging_snapshot", "trend_snapshot")),
        (EpochStore, "publish", "stream.epoch.publish", "stream",
         True, None, None),
        (Checkpointer, "save", "stream.checkpoint", "stream",
         True, _count_checkpoint_bytes, None),
        (serve_engine, "plan_query", "serve.plan", "serve",
         False, None, None),
        (ProcessBackend, "map", "exec.map", "exec", True, None, _count_pickled),
    ]


def _wrap(fn, meter, tracer, key, layer, spanned, after, before):
    """``fn`` timed as one region; spanned regions also open a span."""
    counts = meter.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(counts, args)
        if spanned:
            with tracer.span(key, category=layer):
                result = fn(*args, **kwargs)
        else:
            frame = meter.enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                meter.exit(frame)
        if after is not None:
            after(counts, args, result)
        return result

    return wrapper


@contextmanager
def instrumented(tracer):
    """Wrap the uninstrumented public calls; restore them on exit."""
    originals = []
    try:
        for owner, name, key, layer, spanned, after, before in _targets():
            # An inherited method is wrapped on ``owner`` and the
            # override deleted again on exit.
            originals.append((owner, name, owner.__dict__.get(name)))
            setattr(owner, name, _wrap(
                getattr(owner, name), tracer.meter, tracer, key, layer,
                spanned, after, before,
            ))
        yield
    finally:
        for owner, name, original in reversed(originals):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


# ----------------------------------------------------------------------
# per-layer metrics from meter snapshots
# ----------------------------------------------------------------------

def _share(part, whole):
    return part / whole if whole else 0.0


def _summed(mapping, prefix, suffix=""):
    return sum(
        value for key, value in mapping.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def layer_metrics(first, timed, units, extra):
    """Per-layer metric values.

    ``first`` is the meter delta of the first operation unit — every
    count and ratio comes from it, so each repeats exactly at one seed.
    ``timed`` is the delta over all ``units`` traced units; every
    ``.s`` figure is its seconds per unit.  ``extra`` holds what the
    benchmark measured around the program: the program's own counters
    over the first unit, latency percentiles, seconds per unit in
    ``step`` and in the whole unit, documents per unit, set-up index
    build time and the tracing overhead.
    """
    calls, counts = first["calls"], first["counts"]
    program = extra["program_counters"]
    seconds = {key: value / units for key, value in timed["seconds"].items()}
    self_s = {key: value / units for key, value in timed["self"].items()}

    def sec(key):
        return seconds.get(key, 0.0)

    sequential = _summed(program, "linking.fagin.", ".sequential_accesses")
    random_ = _summed(program, "linking.fagin.", ".random_accesses")
    hits = program.get("query.cache_hits", 0)
    misses = program.get("query.cache_misses", 0)
    pipeline_s = sec("pipeline:run")
    values = {
        "annotation.annotate.calls": calls["annotation.annotate"],
        "annotation.annotate.s": sec("annotation.annotate"),
        "annotation.tokens": counts["annotation.tokens"],
        "annotation.tokenize.s": sec("annotation.tokenize"),
        "annotation.pos.s": sec("annotation.pos"),
        "annotation.dictionary.s": sec("annotation.dictionary"),
        "annotation.patterns.s": sec("annotation.patterns"),
        "annotation.patterns.calls": calls["annotation.patterns"],
        "annotation.patterns.windows": counts["annotation.patterns.windows"],
        "annotation.patterns.hit_share": _share(
            counts["annotation.patterns.hits"],
            counts["annotation.patterns.windows"],
        ),
        "linking.link.calls": calls["linking.link"],
        "linking.link.s": sec("linking.link"),
        "linking.linked_share": _share(
            counts["linking.linked"], calls["linking.link"]
        ),
        "linking.ranked_lists.s": sec("linking.ranked_lists"),
        "linking.annotators.s": sec("linking.annotators"),
        "linking.typed_tokens": counts["linking.typed_tokens"],
        "linking.similarity.calls": calls["linking.similarity"],
        "linking.similarity.s": sec("linking.similarity"),
        "linking.similarity.nonzero_share": _share(
            counts["linking.similarity.nonzero"], calls["linking.similarity"]
        ),
        **{
            f"linking.similarity.calls.{kind}":
                counts[f"linking.similarity.calls.{kind}"]
            for kind in ("name", "phone", "date")
        },
        "linking.merge.s": _summed(seconds, "fagin:"),
        "linking.merge.sequential_accesses": sequential,
        "linking.merge.random_accesses": random_,
        "linking.merge.read_share": _share(
            sequential + random_, counts["linking.list_entries"]
        ),
        "linking.call_record.s": sec("link:call-record"),
        "linking.call_record.hit_share": _share(
            program.get("linking.call_record.hits", 0),
            program.get("linking.call_record.attempts", 0),
        ),
        "store.candidates.calls": calls["store.candidates"],
        "store.candidates.s": sec("store.candidates"),
        "store.candidates.returned": counts["store.candidates.returned"],
        "store.build_indexes.s": extra["build_indexes_s"],
        "cleaning.clean.calls": calls["cleaning.clean"],
        "cleaning.clean.s": sec("cleaning.clean"),
        "cleaning.kept_share": _share(
            counts["cleaning.kept"], calls["cleaning.clean"]
        ),
        "cleaning.spelling.s": sec("cleaning.spelling"),
        "cleaning.spelling.words": calls["cleaning.spelling.word"],
        "cleaning.spelling.changed_share": _share(
            counts["cleaning.spelling.changed"],
            calls["cleaning.spelling.word"],
        ),
        "engine.pipeline.s": pipeline_s,
        "exec.map.calls": calls["exec.map"],
        "exec.map.s": sec("exec.map"),
        "exec.tasks": counts["exec.tasks"],
        "exec.chunks": counts["exec.chunks"],
        "exec.pickled_bytes": counts["exec.pickled_bytes"],
        "exec.pickled_bytes_per_doc": _share(
            counts["exec.pickled_bytes"], extra["unit_docs"]
        ),
        "mining.compute.calls": calls["mining.compute"],
        "mining.compute.s": sec("mining.compute"),
        "mining.partials": program.get("mining.partials", 0),
        "mining.index.add.s": sec("mining.index.add"),
        "stream.step.s": extra["step_s"],
        "stream.window.ingest.calls": calls["stream.window.ingest"],
        "stream.window.ingest.s": sec("stream.window.ingest"),
        "stream.window.read.s": sec("stream.window.read"),
        "stream.epoch.publish.calls": calls["stream.epoch.publish"],
        "stream.epoch.publish.s": sec("stream.epoch.publish"),
        "stream.checkpoint.count": calls["stream.checkpoint"],
        "stream.checkpoint.s": sec("stream.checkpoint"),
        "stream.checkpoint.bytes": counts["stream.checkpoint.bytes"],
        "serve.query.calls": extra["queries"],
        "serve.cache.hit_ratio": _share(hits, hits + misses),
        "serve.plan.s": sec("serve.plan"),
        "trace.overhead_share": extra["overhead_share"],
    }
    for stage in STAGES:
        values[f"engine.stage.{stage}.s"] = sec(f"stage:{stage}")
    values.update(extra["latencies"])
    attributed = 0.0
    for layer in LAYERS:
        if layer != "other":
            values[f"layer.{layer}.self_s"] = self_s.get(layer, 0.0)
            attributed += self_s.get(layer, 0.0)
    values["layer.other.self_s"] = max(0.0, extra["unit_s"] - attributed)
    return values


def delta(later, earlier):
    """``later - earlier`` for two :meth:`Meter.snapshot` results."""
    def minus(a, b):
        return {key: a[key] - b.get(key, 0) for key in a}
    return {
        "calls": Counter(minus(later["calls"], earlier["calls"])),
        "seconds": minus(later["seconds"], earlier["seconds"]),
        "self": minus(later["self"], earlier["self"]),
        "counts": Counter(minus(later["counts"], earlier["counts"])),
    }

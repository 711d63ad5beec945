"""Seeded property-based differential harness.

The repo's correctness story is a stack of bit-identity invariants,
each guarded by its own suite: process fan-out equals serial
(``tests/engine``, ``tests/exec``), a crash/resume stream equals the
uninterrupted run (``tests/stream``), and a traced run equals an
untraced one (``tests/obs``).  Those suites pin hand-picked corpora
and configurations; this harness closes the gap between them by
generating *random* corpus/configuration combinations from one seed
and asserting **all** the equivalences on each — the configurations
nobody thought to pin are exactly where schedule-dependent bugs hide.

Everything derives from :func:`~repro.util.rng.derive_rng`, so a
failing seed is a complete reproduction recipe: the CI failure message
prints ``bivoc prop --seed N`` and that command replays the identical
corpus, batch size, worker count and backend locally.

The oracle is :func:`check_equivalences`; the generator is
:func:`generate_case`.  Stages here are module-level classes holding
only picklable state, so the generated cases can run on the process
backend (spawn-safe envelopes) exactly like the serial ones.
"""

import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass

from repro.engine import Document, MapStage, PipelineRunner
from repro.annotation.dictionary import DictionaryEntry, DomainDictionary
from repro.annotation.matcher import AnnotationEngine
from repro.annotation.patterns import parse_pattern
from repro.exec import BACKEND_KINDS, make_backend
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.mining.assoc2d import associate
from repro.mining.index import field_key
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.stage import ConceptIndexStage
from repro.mining.trends import emerging_concepts, trend_series
from repro.obs import MetricsRegistry, Tracer, activated
from repro.stream import Checkpointer, MemorySource, StreamConsumer
from repro.stream.checkpoint import index_to_state
from repro.util.rng import derive_rng

#: Concept surfaces the generated corpora draw from (one "topic"
#: category, like the telecom churn-driver dictionary's single
#: category, so trend/association analytics rank concepts against
#: each other).
CONCEPT_SURFACES = {
    "billing": ("bill", "charge", "invoice"),
    "outage": ("outage", "dropped", "signal"),
    "roaming": ("roaming", "abroad"),
    "contract": ("contract", "renewal"),
    "support": ("agent", "helpful"),
}

#: Non-concept filler vocabulary mixed into every document.
FILLER_WORDS = (
    "the", "my", "phone", "was", "is", "please", "help",
    "not", "very", "today", "still", "again",
)

#: Channels a generated corpus may mix (1-3 of them per case).
CHANNELS = ("email", "sms", "call")

#: The concept dimension every analytic in the oracle runs over.
TOPIC_DIMENSION = ("concept", "topic")

#: Backend kind per value of the generator's three-way backend draw.
#: Draw 1 named the retired thread backend; it maps to ``"process"``
#: so every seed keeps its draws (and so its whole case) and fan-out
#: stays covered.
BACKEND_DRAWS = ("serial", "process", "process")


#: Topic patterns over the filler words: a PoS tail with a capture, a
#: negation with a wildcard, and a dictionary-category head, so every
#: oracle also runs the compiled pattern pass.
TOPIC_PATTERNS = (
    ("please + VERB", "request", "VERB"),
    ("was + NEG + *", "negated", None),
    ("<topic> + again", "repeat", None),
)


def build_annotation_engine():
    """The fixed annotation engine the generated corpora share."""
    dictionary = DomainDictionary()
    for concept, surfaces in CONCEPT_SURFACES.items():
        for surface in surfaces:
            dictionary.add(DictionaryEntry(surface, concept, "topic"))
    patterns = [
        parse_pattern(expression, canonical, "topic", capture=capture)
        for expression, canonical, capture in TOPIC_PATTERNS
    ]
    return AnnotationEngine(dictionary=dictionary, patterns=patterns)


class NormalizeStage(MapStage):
    """Lowercase and whitespace-normalise the raw text (pure)."""

    name = "normalize"

    def process_document(self, document):  # bivoc: effects[mutates-param]
        """Write the ``clean_text`` artifact.

        Declared for ``bivoc effects``: string methods build fresh
        objects, so the hook only writes the document.
        """
        document.put(
            "clean_text", " ".join(document.text.lower().split())
        )


class PropAnnotateStage(MapStage):
    """Annotate the normalised text with topic concepts (pure)."""

    name = "annotate"

    def __init__(self, engine):
        """``engine`` is the shared topic AnnotationEngine."""
        self.engine = engine

    def process_document(
        self, document
    ):  # bivoc: effects[mutates-param, ambient-obs]
        """Write the ``annotated`` artifact.

        Declared for ``bivoc effects``: ``AnnotationEngine.annotate``
        builds a fresh AnnotatedDocument from read-only dictionaries
        and bumps write-only counters, so the hook only writes the
        document and the ambient obs layer.
        """
        document.put(
            "annotated",
            self.engine.annotate(document.require("clean_text")),
        )


@dataclass(frozen=True)
class PropCase:
    """One generated corpus/configuration combination.

    Every field is a deterministic function of ``seed``, so the case
    *is* its repro recipe — printing it (or just the seed) suffices to
    replay a failure exactly.
    """

    seed: int
    n_docs: int          # corpus size
    channels: tuple      # channel mix (1-3 of CHANNELS)
    batch_size: int      # pipeline-runner batch size
    workers: int         # fan-out width for parallel runs
    backend: str         # backend kind the traced check uses
    batch_docs: int      # stream micro-batch size
    checkpoint_interval: int  # micro-batches between checkpoints
    crash_after: int     # committed batches before the injected crash

    def describe(self):
        """One-line human summary (what ``bivoc prop -v`` prints)."""
        return (
            f"{self.n_docs} docs over {list(self.channels)}, "
            f"batch_size={self.batch_size}, "
            f"workers={self.workers}, backend={self.backend}, "
            f"stream batch_docs={self.batch_docs} "
            f"interval={self.checkpoint_interval} "
            f"crash_after={self.crash_after}"
        )


def generate_case(seed):
    """Generate the :class:`PropCase` for ``seed`` (pure function)."""
    rng = derive_rng(seed, "prop:case")
    n_channels = int(rng.integers(1, len(CHANNELS) + 1))
    channel_picks = rng.choice(
        len(CHANNELS), size=n_channels, replace=False
    )
    backend = BACKEND_DRAWS[int(rng.integers(0, len(BACKEND_DRAWS)))]
    n_docs = int(rng.integers(24, 97))
    channels = tuple(sorted(CHANNELS[int(i)] for i in channel_picks))
    # Drawn and discarded so each later field keeps the value every
    # seed has always drawn: a printed repro line must replay its case.
    rng.integers(1, 9)
    return PropCase(
        seed=seed,
        n_docs=n_docs,
        channels=channels,
        batch_size=int(rng.integers(4, 33)),
        workers=int(rng.integers(2, 5)),
        backend=backend,
        batch_docs=int(rng.integers(5, 20)),
        checkpoint_interval=int(rng.integers(1, 4)),
        crash_after=int(rng.integers(1, 3)),
    )


def describe_case(seed):
    """Shorthand: the one-line summary of ``seed``'s case."""
    return generate_case(seed).describe()


def make_documents(case):
    """A fresh document list for ``case`` (stages mutate documents,
    so every run must start from its own copies)."""
    rng = derive_rng(case.seed, "prop:corpus")
    surfaces = [
        surface
        for concept_surfaces in CONCEPT_SURFACES.values()
        for surface in concept_surfaces
    ]
    vocabulary = surfaces + list(FILLER_WORDS)
    documents = []
    for i in range(case.n_docs):
        channel = case.channels[int(rng.integers(0, len(case.channels)))]
        bucket = int(rng.integers(0, 6))
        n_words = int(rng.integers(5, 11))
        words = [
            vocabulary[int(rng.integers(0, len(vocabulary)))]
            for _ in range(n_words)
        ]
        documents.append(
            Document(
                doc_id=f"d{i:04d}",
                channel=channel,
                text=" ".join(words),
                artifacts={
                    "index_fields": {"channel": channel},
                    "timestamp": bucket,
                },
            )
        )
    return documents


def build_stages():
    """The generated pipeline: normalize, annotate, index."""
    return [
        NormalizeStage(),
        PropAnnotateStage(build_annotation_engine()),
        ConceptIndexStage(on_duplicate="replace"),
    ]


def run_analytics(case, index):
    """Every mining analytic over ``index``, as comparable values.

    Returns a plain dict of tuples/lists/dataclasses so ``==`` between
    two runs is exact and a mismatch names the analytic that diverged.
    """
    focus = (field_key("channel", case.channels[0]),)
    table = associate(index, TOPIC_DIMENSION, ("field", "channel"))
    cube = concept_cube(index, (TOPIC_DIMENSION, ("field", "channel")))
    return {
        "relative_frequency": relative_frequency(
            index, focus, TOPIC_DIMENSION
        ),
        "association_cells": table.cells(),
        "association_shares": table.row_share_matrix(),
        "trend_series": [
            trend_series(index, key)
            for key in index.keys_of_dimension(TOPIC_DIMENSION)
        ],
        "emerging_concepts": emerging_concepts(
            index, TOPIC_DIMENSION, min_total=1
        ),
        "cube_cells": cube.cells(),
    }


def run_batch(case, kind=None):
    """One batch pipeline + analytics run of ``case``.

    ``kind=None`` is the serial reference (no backend object at all);
    a backend kind name builds one sized to ``case.workers`` for the
    pipeline runner (exactly how the CLI wires it) and closes it
    afterwards.
    """
    with (
        nullcontext() if kind is None
        else make_backend(kind, case.workers)
    ) as backend:
        stages = build_stages()
        PipelineRunner(
            stages, batch_size=case.batch_size, backend=backend
        ).run(make_documents(case))
    return run_analytics(case, stages[-1].index)


def _build_consumer(case, checkpoint_path=None):
    """A fresh streaming consumer over ``case``'s corpus.

    Arrival order is (time bucket, generation order) — deterministic,
    so the crashed, resumed and uninterrupted runs all see the same
    stream.
    """
    documents = make_documents(case)
    records = sorted(
        ((doc.get("timestamp"), doc) for doc in documents),
        key=lambda record: (record[0], record[1].doc_id),
    )
    return StreamConsumer(
        MemorySource(records),
        build_stages(),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=case.batch_docs,
        checkpoint_interval=case.checkpoint_interval,
    )


def run_stream_reference(case):
    """Final index state of the uninterrupted streaming run."""
    consumer = _build_consumer(case)
    consumer.run()
    return index_to_state(consumer.index)


def run_stream_resumed(case, tmpdir):
    """Final index state after an injected crash and a cold resume."""
    checkpoint_path = os.path.join(tmpdir, "prop-checkpoint.json")
    crash = FaultPlan(
        seed=case.seed,
        specs=[
            FaultSpec(
                point="stream.batch-committed", kind="fatal",
                after=case.crash_after - 1, times=1,
            )
        ],
    )
    try:
        with injecting(crash.injector()):
            _build_consumer(case, checkpoint_path).run()
    except InjectedFault:
        pass  # scheduled death; resume from the checkpoint below
    resumed = _build_consumer(case, checkpoint_path)
    resumed.restore()
    resumed.run()
    return index_to_state(resumed.index)


def _diff_keys(expected, actual):
    """Names of the analytics that diverged (for the failure message)."""
    if not (isinstance(expected, dict) and isinstance(actual, dict)):
        return None
    return sorted(
        key
        for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    )


def _check(name, expected, actual, case):
    """Assert one equivalence; failures carry the full repro recipe."""
    if expected == actual:
        return
    diverged = _diff_keys(expected, actual)
    detail = f" (diverged: {', '.join(diverged)})" if diverged else ""
    raise AssertionError(
        f"property violated: {name}{detail}\n"
        f"case: seed {case.seed} -> {case.describe()}\n"
        f"reproduce with: bivoc prop --seed {case.seed}"
    )


def check_equivalences(seed):
    """The oracle: every repo-wide equivalence on ``seed``'s case.

    Asserts, on one generated corpus/configuration:

    1. **every backend == serial** — serial and process execution
       produce bit-identical analytics (fan-out armed);
    2. **traced == untraced** — running under an active tracer and
       metrics registry changes nothing (observability is write-only);
    3. **stream crash/resume == uninterrupted** — an injected crash
       plus a checkpoint resume converges to the uninterrupted run's
       exact index state.

    Raises :class:`AssertionError` naming the violated property and
    the single-command repro line; returns the generated
    :class:`PropCase` on success so callers can report coverage.
    """
    case = generate_case(seed)
    reference = run_batch(case)

    per_kind = {}
    for kind in BACKEND_KINDS:
        per_kind[kind] = run_batch(case, kind=kind)
        _check(f"{kind} backend == serial", reference, per_kind[kind],
               case)

    with activated(Tracer(), MetricsRegistry()):
        traced = run_batch(case, kind=case.backend)
    _check("traced == untraced", per_kind[case.backend], traced, case)

    expected_state = run_stream_reference(case)
    with tempfile.TemporaryDirectory() as tmpdir:
        resumed_state = run_stream_resumed(case, tmpdir)
    _check(
        "stream crash/resume == uninterrupted",
        expected_state, resumed_state, case,
    )
    return case

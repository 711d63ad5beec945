"""The benchmark's four workloads, driven through public calls only.

Each workload turns a seed into a corpus (never timed), builds the
objects a run needs (:meth:`setup`, timed as ``setup_s``), and runs
one *unit* of work into a :class:`Recorder`: one study call for the
batch flows, one drained stream for ``telecom-stream``.  A unit
returns an output digest, so repeated units, traced units and the
oracles can be compared with ``==``.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import calibrate
from repro.cleaning.stage import CleaningStage
from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.pipeline import BIVoCSystem
from repro.core.usecases.churn import (
    StreamAnnotateStage,
    build_churn_stages,
    churn_driver_engine,
    run_churn_study,
)
from repro.engine import Document, PipelineRunner
from repro.mining.index import concept_key, field_key
from repro.mining.stage import ConceptIndexStage
from repro.serve import QueryCache, QueryEngine, QuerySpec, plan_query
from repro.serve import result_to_wire
from repro.stream import (
    AssocSpec,
    Checkpointer,
    EpochStore,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
    index_to_state,
)
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom

#: Where runs write checkpoints and traces (inside the checkout).
OUT_DIR = ".bench_out"


def digest_of(value):
    """SHA-256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Recorder:
    """What one run measured, unit by unit.

    With ``corrected`` set, commit times are corrected for machine
    speed (see :mod:`calibrate`); otherwise they are wall time.
    """

    corrected: bool = False
    docs: int = 0  # documents that entered the graph
    busy_s: float = 0.0  # time to complete result (sum of commits)
    commit_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    hit_ms: list = field(default_factory=list)
    miss_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def timed(self, fn, *args, **kwargs):
        """``(result, wall seconds, commit seconds)`` of one call."""
        if self.corrected:
            return calibrate.timed(fn, *args, **kwargs)
        result, seconds = _timed(fn, *args, **kwargs)
        return result, seconds, seconds

    def commit(self, seconds, docs):
        """One committed result of ``docs`` documents."""
        self.busy_s += seconds
        self.docs += docs
        self.attempted += docs
        self.commit_ms.append(seconds * 1e3)

    def check(self, ok, what):
        """One output check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Unit:
    """One finished unit of work and the digest of its outputs.

    ``outputs`` is None when the unit stopped at the deadline; a run
    keeps it only for its first unit, which the oracles read.
    """

    docs: int
    outputs: object
    seconds: float  # wall time
    corrected_s: float = 0.0  # wall time corrected for machine speed
    digest: str = field(init=False)

    def __post_init__(self):
        self.digest = (
            None if self.outputs is None else digest_of(self.outputs)
        )


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


# ----------------------------------------------------------------------
# callcenter
# ----------------------------------------------------------------------

class CallCenter:
    """The call-center insight flow over car-rental transcripts."""

    name = pinned_as = "callcenter"
    streams = False
    config = BIVoCConfig(use_asr=False, link_mode="content")

    def corpus(self, seed):
        """96 calls: 12 agents x 2 days x 4 calls, 160 customers."""
        return generate_car_rental(CarRentalConfig(
            n_agents=12, n_days=2, calls_per_agent_per_day=4,
            n_customers=160, seed=seed,
        ))

    def setup(self, corpus):
        """Warehouse indexes, the domain engine and the stage graph."""
        corpus.database.build_indexes()
        return BIVoCSystem(self.config).build_call_stages(corpus)

    def unit(self, corpus, recorder, deadline=None):
        """One ``run_insight_analysis`` call over the whole corpus."""
        study, wall, seconds = recorder.timed(
            run_insight_analysis, corpus, self.config
        )
        docs = len(corpus.transcripts)
        recorder.commit(seconds, docs)
        recorder.check(
            len(study.analysis.calls) == docs
            and len(study.analysis.index) == docs,
            "callcenter: a call went missing",
        )
        return Unit(docs, self.outputs(study), wall)

    def oracle(self, corpus, reference, recorder):
        """Pinned digests are this workload's oracle; nothing more."""

    @staticmethod
    def outputs(study):
        """Everything the study returns that is not a timing."""
        analysis = study.analysis
        calls = [
            [
                call.call_id,
                None if call.linked_record is None
                else call.linked_record.entity_id,
                call.detected_intent,
                call.value_selling,
                call.discount,
                [
                    [c.canonical, c.category, c.start, c.end, c.source]
                    for c in call.annotated.concepts
                ],
            ]
            for call in analysis.calls
        ]
        tables = {
            "intent": study.intent_table,
            "location_vehicle": study.location_vehicle_table,
            **study.utterance_tables,
        }
        return {
            "calls": calls,
            "index": index_to_state(analysis.index),
            "links": [analysis.link_attempts, analysis.link_successes],
            "stats": analysis.stats,
            "tables": {
                name: result_to_wire("assoc2d", table)
                for name, table in tables.items()
            },
        }


# ----------------------------------------------------------------------
# churn-email / churn-email-process
# ----------------------------------------------------------------------

class ChurnEmail:
    """The churn study over the email channel of a telecom corpus.

    Every execution variant must reproduce the serial outputs, so all
    of them check against the serial pins.
    """

    pinned_as = "churn-email"
    streams = False

    def __init__(self, name, **execution):
        """``execution`` holds the call's ``workers``/``backend`` knobs."""
        self.name = name
        self.execution = execution

    def corpus(self, seed):
        """190 emails from 400 customers over 6 months.

        Churners write a fifth of customer email (the paper's share is
        3%) so that every seed's training months hold linked churner
        messages, which the study needs.
        """
        return generate_telecom(TelecomConfig(
            scale=0.004, n_customers=400, email_churner_fraction=0.2,
            seed=seed,
        ))

    def setup(self, corpus):
        """Warehouse indexes, cleaning pipeline, linker and stages."""
        corpus.database.build_indexes()
        return build_churn_stages(corpus)

    def unit(self, corpus, recorder, deadline=None):
        """One ``run_churn_study`` call over every email."""
        result, wall, seconds = recorder.timed(
            run_churn_study, corpus, channel="email", **self.execution
        )
        docs = len(corpus.emails)
        recorder.commit(seconds, docs)
        recorder.check(
            result.total_messages == docs,
            f"{self.name}: an email went missing",
        )
        return Unit(docs, self.outputs(result), wall)

    def oracle(self, corpus, reference, recorder):
        """A parallel variant's outputs equal the serial call's."""
        if self.execution:
            serial = ChurnEmail("serial").unit(corpus, Recorder())
            recorder.check(
                reference.digest == serial.digest,
                f"{self.name} outputs differ from the serial run",
            )

    @staticmethod
    def outputs(result):
        """Everything the study returns that is not a timing."""
        return {
            "counts": [
                result.total_messages, result.linked_messages,
                result.train_messages,
            ],
            "fractions": [
                result.unlinked_fraction, result.train_churner_fraction,
                result.detection_rate,
            ],
            "cleaning": asdict(result.cleaning_stats),
            "report": asdict(result.message_report),
            "flagged": sorted(result.flagged_customers),
            "churners": sorted(result.test_churners),
        }


# ----------------------------------------------------------------------
# telecom-stream
# ----------------------------------------------------------------------

_DRIVERS = ("concept", "churn driver")
_CHANNEL = ("field", "channel")
_DRIVER_KEY = concept_key("churn driver", "service_issue")
_EMAIL_KEY = field_key("channel", "email")

#: The reader's six-kind query mix, issued twice after every commit.
QUERIES = (
    {"kind": "relfreq", "focus": [list(_EMAIL_KEY)],
     "candidates": list(_DRIVERS)},
    {"kind": "assoc2d", "rows": list(_DRIVERS), "cols": list(_CHANNEL)},
    {"kind": "trends", "key": list(_DRIVER_KEY)},
    {"kind": "emerging", "dimension": list(_DRIVERS), "min_total": 1},
    {"kind": "cube", "dimensions": [list(_DRIVERS), list(_CHANNEL)]},
    {"kind": "drilldown", "keys": [list(_DRIVER_KEY), list(_EMAIL_KEY)]},
)


@dataclass
class _StreamParts:
    """One ready-to-run stream: consumer, window, epochs, reader."""

    consumer: object
    window: object
    epochs: object
    engine: object
    checkpointer: object


class TelecomStream:
    """The ``bivoc stream --source telecom`` graph with a reader.

    Messages arrive month-ordered in micro-batches of ``BATCH_DOCS``;
    every ``CHECKPOINT_INTERVAL`` commits the consumer checkpoints.
    After each commit the same thread issues :data:`QUERIES` twice
    (the second round hits the epoch-keyed cache) and reads every
    window snapshot once.
    """

    name = pinned_as = "telecom-stream"
    streams = True
    BATCH_DOCS = 10
    CHECKPOINT_INTERVAL = 4
    WINDOW_MONTHS = 3

    def corpus(self, seed):
        """674 messages (95 emails, 579 SMS) from 300 customers.

        Each run replays the stream, so the tail of ``commit_ms`` is set
        by the pass's distinct commits; 68 of them keep its p90 steady
        from seed to seed, where 34 did not.
        """
        return generate_telecom(TelecomConfig(
            scale=0.002, n_customers=300, seed=seed,
        ))

    @staticmethod
    def arrivals(corpus):
        """Messages in arrival order: by month, then message id."""
        return sorted(corpus.messages, key=lambda m: (m.month, m.message_id))

    @staticmethod
    def documents(messages):
        """Fresh engine documents, one per message."""
        return [
            Document(
                doc_id=message.message_id,
                channel=message.channel,
                text=message.raw_text,
                artifacts={"index_fields": {"channel": message.channel}},
            )
            for message in messages
        ]

    @staticmethod
    def stages():
        """The CLI's telecom stage graph."""
        return [
            CleaningStage(),
            StreamAnnotateStage(churn_driver_engine()),
            ConceptIndexStage(on_duplicate="replace"),
        ]

    def setup(self, corpus):
        """Source, stages, window, epochs, checkpointer, consumer, reader."""
        messages = self.arrivals(corpus)
        source = MemorySource(
            (message.month, document)
            for message, document in zip(messages, self.documents(messages))
        )
        window = WindowedAnalytics(
            self.WINDOW_MONTHS,
            assoc_specs=[AssocSpec(_DRIVERS, _CHANNEL)],
            relfreq_specs=[RelFreqSpec((_EMAIL_KEY,), _DRIVERS)],
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        checkpointer = Checkpointer(os.path.join(OUT_DIR, "stream.ck.json"))
        checkpointer.clear()
        epochs = EpochStore()
        consumer = StreamConsumer(
            source, self.stages(), window=window, checkpointer=checkpointer,
            batch_docs=self.BATCH_DOCS,
            checkpoint_interval=self.CHECKPOINT_INTERVAL, epochs=epochs,
        )
        engine = QueryEngine(epochs, cache=QueryCache())
        return _StreamParts(consumer, window, epochs, engine, checkpointer)

    @staticmethod
    def window_reads(window):
        """Each window snapshot, as (kind, zero-argument read)."""
        return (
            ("assoc2d", lambda: window.assoc_snapshot(0)),
            ("relfreq", lambda: window.relfreq_snapshot(0)),
            ("emerging", lambda: window.emerging_snapshot(_DRIVERS)),
            ("trends", lambda: window.trend_snapshot(_DRIVER_KEY)),
        )

    def _read(self, parts, recorder):
        """The reader's turn after one commit."""
        if len(parts.epochs.current().index):
            for _ in range(2):
                for payload in QUERIES:
                    result, seconds = _timed(parts.engine.query, payload)
                    milliseconds = seconds * 1e3
                    recorder.query_ms.append(milliseconds)
                    (recorder.hit_ms if result.cached
                     else recorder.miss_ms).append(milliseconds)
                    recorder.check(
                        not result.degraded,
                        f"degraded {payload['kind']} answer",
                    )
        if len(parts.window):
            for _, read in self.window_reads(parts.window):
                recorder.attempted += 1
                recorder.read_ms.append(_timed(read)[1] * 1e3)

    def unit(self, corpus, recorder, deadline=None):
        """Drain the stream once; stops early only past ``deadline``."""
        started = time.perf_counter()
        parts = self.setup(corpus)
        report = parts.consumer.report
        with parts.consumer:
            while True:
                before = report.processed + report.discarded
                more, _, seconds = recorder.timed(parts.consumer.step)
                if not more:
                    break
                recorder.commit(
                    seconds, report.processed + report.discarded - before
                )
                self._read(parts, recorder)
                if deadline is not None and time.perf_counter() > deadline:
                    return Unit(0, None, time.perf_counter() - started)
        outputs = self.final_outputs(parts, recorder)
        parts.checkpointer.clear()
        return Unit(
            len(corpus.messages), outputs, time.perf_counter() - started
        )

    def final_outputs(self, parts, recorder):
        """Final index, final-epoch answers and window snapshots.

        Checks that each final-epoch answer equals ``plan_query`` on
        the same snapshot.
        """
        snapshot = parts.epochs.current()
        answers = {}
        for payload in QUERIES:
            served = result_to_wire(
                payload["kind"], parts.engine.query(payload).value
            )
            planned = result_to_wire(
                payload["kind"],
                plan_query(QuerySpec.parse(payload), snapshot.index),
            )
            recorder.check(
                served == planned,
                f"final {payload['kind']} answer differs from plan_query",
            )
            answers[payload["kind"]] = served
        return {
            "index": index_to_state(parts.consumer.index),
            "answers": answers,
            "window": {
                kind: result_to_wire(kind, read())
                for kind, read in self.window_reads(parts.window)
            },
        }

    def batch_index_state(self, corpus):
        """The batch reference: the same graph over every message."""
        messages = self.arrivals(corpus)
        documents = self.documents(messages)
        for message, document in zip(messages, documents):
            document.put("timestamp", message.month)
        stages = self.stages()
        with PipelineRunner(stages) as runner:
            runner.run(documents)
        return index_to_state(stages[-1].index)

    def oracle(self, corpus, reference, recorder):
        """A drained unit's final index equals a batch run's index."""
        recorder.check(
            reference.outputs["index"] == self.batch_index_state(corpus),
            "streamed index differs from the batch PipelineRunner index",
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        CallCenter(),
        ChurnEmail("churn-email"),
        ChurnEmail("churn-email-process", workers=2, backend="process"),
        TelecomStream(),
    )
}

"""The BIVoC pipeline: transcribe -> link -> annotate -> index.

Mirrors the architecture of the paper's Fig 3 for the call-center side
as a declarative stage graph on the :mod:`repro.engine` runner: call
audio (simulated) is transcribed per speaker turn, the transcript is
linked to its reservation-warehouse record, the annotation engine
annotates the whole call once, the derive stage reads the right
conversational regions from that annotation by token range (intent
from the customer's opening, value selling and discounts from the
agent's side), and everything lands in a
:class:`~repro.mining.index.ConceptIndex` ready for association
analysis.  Every stage reports docs in/out and wall time through the
runner's :class:`~repro.engine.PipelineReport`.
"""

from dataclasses import dataclass, field

from repro.annotation.domains import (
    DISCOUNT_CATEGORY,
    INTENT_CATEGORY,
    STRONG_START,
    VALUE_SELLING_CATEGORY,
    WEAK_START,
    build_car_rental_engine,
)
from repro.asr.system import ASRSystem
from repro.asr.twopass import constrained_decode, name_words_of
from repro.core.config import BIVoCConfig
from repro.engine import Document, MapStage, PipelineRunner, Stage
from repro.linking.annotators import build_default_annotators
from repro.linking.similarity import default_registry
from repro.linking.single import EntityLinker
from repro.mining.stage import ConceptIndexStage
from repro.obs import get_metrics, get_tracer
from repro.store.query import Query
from repro.util.tokenize import tokenize
from repro.util.turns import split_speakers


@dataclass
class ProcessedCall:
    """One call after the full pipeline."""

    call_id: int
    customer_opening: str
    agent_text: str
    full_text: str
    linked_record: object  # calls-table Entity or None
    annotated: object  # AnnotatedDocument over the full text
    detected_intent: str  # "strong" | "weak" | "unknown"
    value_selling: bool
    discount: bool


@dataclass
class CallCenterAnalysis:
    """Pipeline output: processed calls plus the ready concept index."""

    calls: list
    index: object  # ConceptIndex
    link_attempts: int = 0
    link_successes: int = 0
    stats: dict = field(default_factory=dict)
    stage_report: object = None  # engine PipelineReport for the run

    @property
    def linked_fraction(self):
        """Share of link attempts that found a record."""
        if self.link_attempts == 0:
            return 0.0
        return self.link_successes / self.link_attempts


class CallRecordLinker:
    """Links a transcript to its reservation record.

    The recorder knows the agent and the day, so candidate records are
    the handful of calls that agent took that day; the customer's
    identity mentions (name / phone / date of birth) pick among their
    customers with the standard similarity registry — the combined-
    evidence scoring of paper Eqn 2 over a metadata-blocked candidate
    set.
    """

    def __init__(self, database, annotators=None, registry=None,
                 min_score=0.3):
        self._calls = database.table("calls")
        self._customers = database.table("customers")
        self._annotators = annotators or build_default_annotators()
        self._registry = registry or default_registry()
        self._min_score = min_score
        self._by_agent_day = {}
        for record in self._calls:
            key = (record["agent_name"], record["day"])
            self._by_agent_day.setdefault(key, []).append(record)

    def link(self, customer_text, agent_name, day):
        """Best call record for the transcript, or None.

        A traced hot path: each attempt opens a ``link:call-record``
        span tagged with the candidate count and hit/miss, while the
        ambient metrics registry counts attempts and hits, links
        certified without scoring (``linking.call_record.certified``)
        and candidates scored in full (``.scored``; see
        :mod:`repro.obs`).  The span never changes which record wins.
        """
        with get_tracer().span(
            "link:call-record", category="linking"
        ) as span:
            record = self._link(customer_text, agent_name, day, span)
        metrics = get_metrics()
        metrics.counter("linking.call_record.attempts").inc()
        if record is not None:
            metrics.counter("linking.call_record.hits").inc()
        return record

    def _link(self, customer_text, agent_name, day, span):
        """The scoring body; tags the enclosing ``span`` as it goes.

        The call's ``(attribute, token value, exact test)`` pairs are
        built once, in token x attribute order.  When there are ``n >=
        1`` pairs and every one has an exact-match test
        (:meth:`SimilarityRegistry.exact_test`), the first candidate, in
        record order, whose customer passes every test wins at ``n``
        (the sum of ``n`` 1.0s) and nothing is scored.  Otherwise, or
        when no candidate passes, every candidate is scored in full and
        the first strict maximum wins; with no pairs every score is 0.0
        and none wins.  The two agree:

        - No later candidate can beat ``n``: every score is at most
          1.0, and a float sum rounds monotonically.
        - Every earlier candidate fails some test, so one of its
          scores lies below 1.0 by a gap of about ``1/L`` for digits
          (``L`` the longer digit string), 1/3 for dates and far more
          than an ulp for names (see :func:`name_exact_test`).  That
          gap dwarfs the rounding of an ``n``-term sum, so its total
          stays below ``n``.

        ``numeric_similarity`` can land one ulp below 1.0 and has no
        test, so a pair scored by it (or by any measure plugged in with
        ``register``, or a registry without ``exact_test``) always
        takes the full loop.  The block is not handed to
        :class:`EntityLinker`'s TA: TA breaks ties by entity id, the
        block by record order, and two calls of one customer tie.
        """
        candidates = self._by_agent_day.get((agent_name, day), ())
        span.tag("candidates", len(candidates))
        if not candidates:
            return None
        tokens = self._annotators.annotate(customer_text)
        span.tag("tokens", len(tokens))
        if not tokens:
            return None
        exact_test = getattr(self._registry, "exact_test", None)
        pairs = [
            (
                attribute,
                token.value,
                exact_test(attribute.type, token.value)
                if exact_test else None,
            )
            for token in tokens
            for attribute in self._customers.schema.attributes_of_type(
                token.attr_type
            )
        ]
        metrics = get_metrics()
        best_record = None
        if pairs and all(test is not None for _, _, test in pairs):
            best_record = self._certified(candidates, pairs)
        if best_record is not None:
            metrics.counter("linking.call_record.certified").inc()
            best_score = float(len(pairs))
        else:
            best_record, best_score = self._scored(candidates, pairs)
            metrics.counter("linking.call_record.scored").inc(
                len(candidates)
            )
        span.tag("best_score", best_score)
        if best_score < self._min_score:
            return None
        return best_record

    def _certified(self, candidates, pairs):
        """The first record whose customer passes every pair's test."""
        for record in candidates:
            values = self._customers.get(record["customer_ref"]).values
            if all(
                test(values.get(attribute.name))
                for attribute, _, test in pairs
            ):
                return record
        return None

    def _scored(self, candidates, pairs):
        """``(record, score)`` of the first strict maximum of Eqn 2."""
        similarity = self._registry.similarity
        best_record = None
        best_score = 0.0
        for record in candidates:
            values = self._customers.get(record["customer_ref"]).values
            score = 0.0
            for attribute, token_value, _ in pairs:
                score += similarity(
                    attribute.type, token_value, values.get(attribute.name)
                )
            if score > best_score:
                best_score = score
                best_record = record
        return best_record, best_score


def transcribe_turns(asr, turns, config=None, identity_linker=None,
                     roster_words=frozenset()):
    """Per-turn recognition, preserving the speaker separation.

    ``turns`` is the transcript's ``(speaker, text)`` sequence.  With
    ``config.two_pass`` enabled, the customer's first-pass text
    retrieves the top-N candidate identities from the warehouse and
    every turn is re-decoded with name slots constrained to those
    identities plus the agent roster (paper SecIV-A).  Returns
    ``(customer_parts, agent_parts)``.
    """
    config = config or BIVoCConfig()
    transcriptions = [
        (speaker, asr.transcribe(text)) for speaker, text in turns
    ]
    if config.two_pass and identity_linker is not None:
        first_pass_customer = " ".join(
            " ".join(transcription.hypothesis_tokens)
            for speaker, transcription in transcriptions
            if speaker == "customer"
        )
        identities = identity_linker.top_identities(
            first_pass_customer, n=config.two_pass_top_n
        )
        allowed = name_words_of(identities) | roster_words
        if allowed:
            redecoded = [
                (
                    speaker,
                    " ".join(
                        constrained_decode(
                            asr.decoder, transcription.network, allowed
                        )[0]
                    ),
                )
                for speaker, transcription in transcriptions
            ]
            return split_speakers(redecoded)
    decoded = [
        (speaker, " ".join(transcription.hypothesis_tokens))
        for speaker, transcription in transcriptions
    ]
    return split_speakers(decoded)


class TurnSplitStage(MapStage):
    """Reference path: split the transcript's turns per speaker."""

    name = "turn-split"

    def process_document(self, document):
        """Write customer/agent part lists from the reference turns."""
        transcript = document.require("transcript")
        customer_parts, agent_parts = split_speakers(transcript.turns)
        document.put("customer_parts", customer_parts)
        document.put("agent_parts", agent_parts)


class TranscribeStage(Stage):
    """ASR path: per-turn recognition (optionally two-pass).

    Impure by design: all documents share one simulated acoustic
    channel whose noise stream is a single seeded RNG, so decode order
    is part of the reproducible output and the stage must run serially.
    """

    name = "transcribe"
    pure = False

    def __init__(self, asr, config, identity_linker=None,
                 roster_words=frozenset()):
        """``asr`` is the shared ASRSystem for the whole run."""
        self.asr = asr
        self.config = config
        self.identity_linker = identity_linker
        self.roster_words = roster_words

    def process(self, batch):
        """Transcribe every document's turns through the channel."""
        for document in batch:
            transcript = document.require("transcript")
            customer_parts, agent_parts = transcribe_turns(
                self.asr,
                transcript.turns,
                config=self.config,
                identity_linker=self.identity_linker,
                roster_words=self.roster_words,
            )
            document.put("customer_parts", customer_parts)
            document.put("agent_parts", agent_parts)
        return batch


class ComposeTextStage(MapStage):
    """Join speaker parts into the texts downstream stages consume."""

    name = "compose"

    def process_document(self, document):
        """Derive customer/agent/opening/full text artifacts."""
        customer_parts = document.require("customer_parts")
        agent_parts = document.require("agent_parts")
        customer_text = " ".join(customer_parts)
        agent_text = " ".join(agent_parts)
        document.put("customer_text", customer_text)
        document.put("agent_text", agent_text)
        document.put("opening", " ".join(customer_parts[:2]))
        document.put("full_text", f"{customer_text} {agent_text}")


class RecordLinkStage(MapStage):
    """Join each call to its reservation-warehouse record.

    ``"metadata"`` mode resolves the oracle call id (CTI metadata
    survives); ``"content"`` mode runs the agent/day-blocked identity
    linker over the customer's words and counts the attempt.
    """

    name = "record-link"

    def __init__(self, linker, calls_table, link_mode):
        """``linker`` is a CallRecordLinker; ``calls_table`` the
        warehouse calls table for metadata mode."""
        self.linker = linker
        self.calls_table = calls_table
        self.link_mode = link_mode

    def process_document(
        self, document
    ):  # bivoc: effects[mutates-param, ambient-obs]
        """Attach ``record`` (Entity or None) and attempt accounting.

        Declared for ``bivoc effects``: the injected linker/table are
        read-only (``CallRecordLinker.link`` only tags spans and bumps
        counters), so the hook touches nothing but the document and
        the ambient obs layer — inference cannot see through the
        injected collaborator on its own.  A call whose block holds an
        exact match is linked without scoring; only a call scored in
        full fills the registry's Jaro-Winkler word-pair memo, a cache
        no result depends on.
        """
        transcript = document.require("transcript")
        if self.link_mode == "metadata":
            record = self.calls_table.get(transcript.call_id)
            document.put("link_attempted", False)
        else:
            record = self.linker.link(
                document.require("customer_text"),
                transcript.agent_name,
                transcript.day,
            )
            document.put("link_attempted", True)
        document.put("record", record)


class AnnotateStage(MapStage):
    """Concept annotation of the whole call, once."""

    name = "annotate"

    def __init__(self, engine):
        """``engine`` is the domain AnnotationEngine (read-only)."""
        self.engine = engine

    def process_document(
        self, document
    ):  # bivoc: effects[mutates-param, ambient-obs]
        """Annotate the full text; :class:`DeriveStage` reads its regions.

        Declared for ``bivoc effects``: ``AnnotationEngine.annotate``
        builds a fresh AnnotatedDocument from read-only dictionaries
        and bumps its write-only counters, so the hook touches only
        the document and the ambient obs layer.
        """
        document.put(
            "annotated",
            self.engine.annotate(
                document.require("full_text"), doc_id=document.doc_id
            ),
        )


def _straddles(concepts, cut):
    """True when a dictionary concept spans the token boundary ``cut``."""
    return any(
        concept.source == "dictionary" and concept.start < cut < concept.end
        for concept in concepts
    )


def _intent_of(intents):
    """"strong" / "weak" / "unknown" from the opening's intent canonicals."""
    if STRONG_START in intents and WEAK_START not in intents:
        return "strong"
    if WEAK_START in intents and STRONG_START not in intents:
        return "weak"
    return "unknown"


class DeriveStage(MapStage):
    """Derive intent and agent-utterance flags; stage the index row.

    Both regions are token ranges of the full text's annotation.  No
    token crosses a space, so the full text's tokens are the customer
    tokens followed by the agent tokens, and the opening's tokens are
    a prefix of them.  With ``c`` the customer token count and ``m``
    the opening's, the agent flags are the categories of the concepts
    starting at or after ``c``, and the intent is read from the
    ``intent`` concepts ending by ``m``.  These are the concepts the
    agent text or the opening would get if annotated on its own
    (DESIGN.md, "Annotating a call once"), unless a dictionary concept
    straddles the cut: its longest-first scan then steps over the cut,
    so that region is annotated from its own text instead.
    """

    name = "derive"

    RECORD_FIELDS = ("call_type", "car_type", "city", "agent_name", "day")

    def __init__(self, engine):
        """``engine`` is the domain AnnotationEngine (read-only)."""
        self.engine = engine

    def _concepts_of(self, document, name):
        """Concepts of the document's ``name`` text, annotated alone."""
        return self.engine.annotate(document.require(name)).concepts

    def process_document(
        self, document
    ):  # bivoc: effects[mutates-param, ambient-obs]
        """Write intent/flag artifacts and the structured index row.

        Declared for ``bivoc effects``: the regions are read from the
        full text's concepts, or annotated by the read-only domain
        engine, which bumps write-only counters; everything written
        lands on the document.
        """
        concepts = document.require("annotated").concepts
        counts = [
            len(tokenize(part)) for part in document.require("customer_parts")
        ]
        customer_end, opening_end = sum(counts), sum(counts[:2])
        if _straddles(concepts, customer_end):
            agent = self._concepts_of(document, "agent_text")
        else:
            agent = [c for c in concepts if c.start >= customer_end]
        if _straddles(concepts, opening_end):
            opening = self._concepts_of(document, "opening")
        else:
            opening = [c for c in concepts if c.end <= opening_end]
        record = document.require("record")
        intent = _intent_of({
            concept.canonical
            for concept in opening
            if concept.category == INTENT_CATEGORY
        })
        agent_categories = {concept.category for concept in agent}
        value_selling = VALUE_SELLING_CATEGORY in agent_categories
        discount = DISCOUNT_CATEGORY in agent_categories
        document.put("detected_intent", intent)
        document.put("value_selling", value_selling)
        document.put("discount", discount)

        fields = {}
        if record is not None:
            fields = {
                name: record.values.get(name)
                for name in self.RECORD_FIELDS
            }
        if intent != "unknown":
            fields["detected_intent"] = intent
        fields["agent_value_selling"] = value_selling
        fields["agent_discount"] = discount
        document.put("index_fields", fields)
        document.put("timestamp", document.require("transcript").day)


def call_documents(corpus):
    """One engine document per call of a car-rental corpus."""
    return [
        Document(
            doc_id=transcript.call_id,
            channel="call",
            text=transcript.text,
            artifacts={"transcript": transcript},
        )
        for transcript in corpus.transcripts
    ]


class BIVoCSystem:
    """End-to-end system facade for the call-center study."""

    RECORD_FIELDS = DeriveStage.RECORD_FIELDS

    def __init__(self, config=None, engine=None):
        self.config = config or BIVoCConfig()
        self.engine = engine or build_car_rental_engine()

    def _build_asr(self, corpus):
        sample = [
            transcript.text
            for transcript in corpus.transcripts[
                : self.config.lm_sample_size
            ]
        ]
        system = ASRSystem.build_default(extra_sentences=sample)
        system.channel.reset(self.config.asr_seed)
        return system

    def build_call_stages(self, corpus, index_stage=None):
        """The declarative stage graph for one call-center corpus.

        Returns the ordered stage list; pass ``index_stage`` to supply
        a pre-configured :class:`ConceptIndexStage` (for example one
        whose index keeps drill-down documents).
        """
        config = self.config
        linker = CallRecordLinker(
            corpus.database, min_score=config.min_link_score
        )
        if config.use_asr:
            asr = self._build_asr(corpus)
            identity_linker = None
            roster_words = frozenset()
            if config.two_pass:
                identity_linker = EntityLinker(
                    corpus.database, "customers"
                )
                roster = set()
                if "agents" in corpus.database:
                    for agent in corpus.database.table("agents"):
                        roster.update(
                            str(agent["name"]).lower().split()
                        )
                roster_words = frozenset(roster)
            ingest = TranscribeStage(
                asr,
                config,
                identity_linker=identity_linker,
                roster_words=roster_words,
            )
        else:
            ingest = TurnSplitStage()
        return [
            ingest,
            ComposeTextStage(),
            RecordLinkStage(
                linker, corpus.database.table("calls"), config.link_mode
            ),
            AnnotateStage(self.engine),
            DeriveStage(self.engine),
            index_stage or ConceptIndexStage(),
        ]

    def process_call_center(self, corpus):
        """Run the full pipeline over a car-rental corpus, inline."""
        stages = self.build_call_stages(corpus)
        index_stage = stages[-1]
        result = PipelineRunner(stages).run(call_documents(corpus))

        processed = []
        link_attempts = 0
        link_successes = 0
        for document in result.documents:
            record = document.get("record")
            if document.get("link_attempted"):
                link_attempts += 1
                if record is not None:
                    link_successes += 1
            processed.append(
                ProcessedCall(
                    call_id=document.doc_id,
                    customer_opening=document.get("opening"),
                    agent_text=document.get("agent_text"),
                    full_text=document.get("full_text"),
                    linked_record=record,
                    annotated=document.get("annotated"),
                    detected_intent=document.get("detected_intent"),
                    value_selling=document.get("value_selling"),
                    discount=document.get("discount"),
                )
            )
        if self.config.link_mode == "metadata":
            link_attempts = link_successes = len(processed)
        return CallCenterAnalysis(
            calls=processed,
            index=index_stage.index,
            link_attempts=link_attempts,
            link_successes=link_successes,
            stats={
                "intent_detected": sum(
                    1 for call in processed
                    if call.detected_intent != "unknown"
                ),
                "total": len(processed),
            },
            stage_report=result.report,
        )

    @staticmethod
    def booking_ratio(database, agent_name=None):
        """Reservation : (reservation + unbooked) ratio from the warehouse.

        The paper's agent-productivity metric ("the ratio of reserved
        calls to unbooked calls") expressed as a rate so it is bounded.
        """
        calls = Query(database.table("calls"))
        if agent_name is not None:
            calls = calls.where_equals("agent_name", agent_name)
        reserved = calls.where_equals("call_type", "reservation").count()
        unbooked = calls.where_equals("call_type", "unbooked").count()
        total = reserved + unbooked
        if total == 0:
            return 0.0
        return reserved / total

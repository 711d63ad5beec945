"""The three-pass annotate and derive stages, kept as the reference.

These are the call-center stages as they ran before a call was
annotated once: :class:`ReferenceAnnotateStage` annotates the full
text and, again, the agent text; :class:`ReferenceDeriveStage`
annotates the customer opening a third time for its intent and reads
the agent flags from the agent text's own annotation.
:class:`ReferenceSystem` is a :class:`~repro.core.pipeline.BIVoCSystem`
whose stage graph runs them in place of the program's stages.

:class:`ReferenceDriverAnnotateStage` is the churn study's retired
driver-annotate stage, which staged each message's index row itself
instead of finding it on the document.  Only tests use these.
"""

from repro.annotation.domains import (
    DISCOUNT_CATEGORY,
    INTENT_CATEGORY,
    STRONG_START,
    VALUE_SELLING_CATEGORY,
    WEAK_START,
)
from repro.core.pipeline import AnnotateStage, BIVoCSystem, DeriveStage
from repro.engine import MapStage


class ReferenceAnnotateStage(MapStage):
    """Concept annotation over the full call and the agent's side."""

    name = "annotate"

    def __init__(self, engine):
        """``engine`` is the domain AnnotationEngine (read-only)."""
        self.engine = engine

    def process_document(self, document):
        """Annotate full text (indexed) and agent text (flags)."""
        document.put(
            "annotated",
            self.engine.annotate(
                document.require("full_text"), doc_id=document.doc_id
            ),
        )
        document.put(
            "agent_doc",
            self.engine.annotate(document.require("agent_text")),
        )


class ReferenceDeriveStage(MapStage):
    """Derive intent and agent-utterance flags; stage the index row."""

    name = "derive"

    RECORD_FIELDS = ("call_type", "car_type", "city", "agent_name", "day")

    def __init__(self, engine):
        """``engine`` is the domain AnnotationEngine (read-only)."""
        self.engine = engine

    def _detect_intent(self, opening_text):
        """"strong" / "weak" / "unknown" from the customer opening."""
        document = self.engine.annotate(opening_text)
        intents = {
            concept.canonical
            for concept in document.concepts_in(INTENT_CATEGORY)
        }
        if STRONG_START in intents and WEAK_START not in intents:
            return "strong"
        if WEAK_START in intents and STRONG_START not in intents:
            return "weak"
        return "unknown"

    def process_document(self, document):
        """Write intent/flag artifacts and the structured index row."""
        agent_doc = document.require("agent_doc")
        record = document.require("record")
        intent = self._detect_intent(document.require("opening"))
        value_selling = agent_doc.has_category(VALUE_SELLING_CATEGORY)
        discount = agent_doc.has_category(DISCOUNT_CATEGORY)
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


def reference_stages(stages, engine):
    """``stages`` with the annotate and derive stages swapped for these."""
    swapped = []
    for stage in stages:
        if isinstance(stage, AnnotateStage):
            stage = ReferenceAnnotateStage(engine)
        elif isinstance(stage, DeriveStage):
            stage = ReferenceDeriveStage(engine)
        swapped.append(stage)
    return swapped


class ReferenceSystem(BIVoCSystem):
    """The call-center system over the three-pass reference stages."""

    def build_call_stages(self, corpus, index_stage=None):
        """The program's graph with the reference annotate and derive."""
        return reference_stages(
            super().build_call_stages(corpus, index_stage), self.engine
        )


class ReferenceDriverAnnotateStage(MapStage):
    """Churn-driver annotation that also stages the index row."""

    name = "annotate-drivers"

    def __init__(self, engine):
        """``engine`` is the churn-driver AnnotationEngine."""
        self.engine = engine

    def process_document(self, document):
        """Write the annotated/index_fields/timestamp artifacts."""
        document.put(
            "annotated",
            self.engine.annotate(document.require("cleaned_text")),
        )
        document.put("index_fields", {"channel": document.channel})
        document.put("timestamp", document.require("message").month)

"""Pipeline-engine adapter for the mining subsystem.

:class:`ConceptIndexStage` is the terminal "index" stage of the
paper's Fig 3 dataflow: it feeds every surviving document — its
annotations, the structured fields of its linked record, and its time
bucket — into a shared concept index, ready for association and
trend analysis.
"""

from repro.engine import Stage
from repro.mining.index import ConceptIndex


class ConceptIndexStage(Stage):
    """Index annotated documents into a shared concept index.

    Impure by design: all documents write into one index, so indexing
    runs serially (insertion order is part of no contract, but the
    shared structure must not be written from multiple workers).

    Artifact inputs (all optional per document):

    * ``annotated`` — the AnnotatedDocument to index concepts from,
    * ``index_fields`` — structured ``{name: value}`` dimensions,
    * ``timestamp`` — orderable time bucket for trend analysis.
    """

    name = "index"
    pure = False

    def __init__(self, index=None, annotated_artifact="annotated",
                 fields_artifact="index_fields",
                 timestamp_artifact="timestamp", on_duplicate="raise"):
        """``index`` defaults to a fresh, non-document-keeping index.

        ``on_duplicate`` is forwarded to the index's ``add``; a
        streaming consumer sets ``"replace"`` so at-least-once
        re-delivery stays idempotent (batch runs keep the strict
        default).
        """
        self.index = ConceptIndex() if index is None else index
        self.annotated_artifact = annotated_artifact
        self.fields_artifact = fields_artifact
        self.timestamp_artifact = timestamp_artifact
        self.on_duplicate = on_duplicate

    def process(self, batch):
        """Add every document in the batch to the index."""
        for document in batch:
            self.index.add(
                document.doc_id,
                annotated=document.get(self.annotated_artifact),
                fields=document.get(self.fields_artifact),
                timestamp=document.get(self.timestamp_artifact),
                on_duplicate=self.on_duplicate,
            )
        return batch

"""Multi-type entity identification (paper Section IV-B, Eqn 3).

Documents may be about entities of different types (tables): a
transaction, a customer, a credit card.  The central ``(entity, type)``
pair is found with per-(attribute, type) weights:

    score(d, e, T_k) = sum_i sum_j  w_jk * sim(t_i, e.A_j)

The weights matter because types share attributes (both the customer
and the transaction table may carry an address); they are learned
unsupervised by :func:`repro.linking.em.learn_weights_em`.
"""

from dataclasses import dataclass

from repro.linking.single import EntityLinker


@dataclass
class TypedLinkResult:
    """Best ``(entity, type)`` for a document, with per-type scores."""

    entity: object
    table_name: str
    score: float
    per_table: dict  # table_name -> LinkResult

    @property
    def linked(self):
        """True when a best (entity, type) pair was found."""
        return self.entity is not None


class MultiTypeLinker:
    """Scores documents against several tables and picks the best pair.

    ``weights`` maps ``(attribute_name, table_name)`` to ``w_jk``;
    missing entries default to 1.0 (the uniform initialisation the EM
    loop starts from).
    """

    def __init__(self, database, table_names, annotators=None,
                 registry=None, weights=None, candidate_limit=25):
        if not table_names:
            raise ValueError("need at least one table")
        self.database = database
        self.table_names = list(table_names)
        self.weights = dict(weights or {})
        self._linkers = {}
        for table_name in self.table_names:
            self._linkers[table_name] = EntityLinker(
                database,
                table_name,
                annotators=annotators,
                registry=registry,
                candidate_limit=candidate_limit,
            )
        self._push_weights()

    def _push_weights(self):
        for table_name, linker in self._linkers.items():
            linker.weights = {
                attribute: weight
                for (attribute, table), weight in self.weights.items()
                if table == table_name
            }

    def set_weights(self, weights):
        """Replace the ``(attribute, table) -> w`` map."""
        self.weights = dict(weights)
        self._push_weights()

    def weight_of(self, attribute_name, table_name):
        """Weight w_jk for an (attribute, table) pair (default 1)."""
        return self.weights.get((attribute_name, table_name), 1.0)

    def linker_for(self, table_name):
        """The per-table EntityLinker behind this type."""
        return self._linkers[table_name]

    def link(self, text):
        """Best ``(entity, type)`` pair for the document."""
        per_table = {}
        best = None
        for table_name in self.table_names:
            result = self._linkers[table_name].link(text)
            per_table[table_name] = result
            if result.linked and (
                best is None or result.score > best.score
            ):
                best = result
        if best is None:
            return TypedLinkResult(None, None, 0.0, per_table)
        return TypedLinkResult(
            entity=best.entity,
            table_name=best.table_name,
            score=best.score,
            per_table=per_table,
        )

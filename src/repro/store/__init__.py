"""In-memory structured store: the warehouse substrate of BIVoC.

The paper's linking engine runs against "a structured database that
contains a table with k attributes" (Section IV-B).  This package
provides that substrate: typed schemas, tables of entities, a database
of tables, and the exact/fuzzy indexes the linking engine uses for
candidate generation.
"""

from repro.store.contract import concept_key, field_key
from repro.store.schema import Attribute, AttributeType, Schema
from repro.store.table import Entity, Table
from repro.store.database import Database
from repro.store.index import (
    HashIndex,
    QGramIndex,
    SoundexIndex,
    TokenIndex,
)
from repro.store.query import Query, count_by, ratio_by

__all__ = [
    "concept_key",
    "field_key",
    "Attribute",
    "AttributeType",
    "Schema",
    "Entity",
    "Table",
    "Database",
    "HashIndex",
    "TokenIndex",
    "QGramIndex",
    "SoundexIndex",
    "Query",
    "count_by",
    "ratio_by",
]

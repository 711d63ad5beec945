"""A database: a named collection of tables plus their fuzzy indexes.

The multi-type entity-identification problem of the paper works over
"entities from multiple tables"; :class:`Database` is that collection,
and it owns one index registry per (table, attribute) so the linking
engine can ask for candidates without knowing index internals.
"""

from repro.store.index import build_index_for_attribute
from repro.store.schema import Schema
from repro.store.table import Table


class Database:
    """Named tables with lazily built per-attribute fuzzy indexes."""

    def __init__(self, name="bivoc"):
        self.name = name
        self._tables = {}
        self._indexes = {}
        #: Bumped by every :meth:`build_indexes`, so a reader that cached
        #: candidate results can tell the indexes moved under it.
        self.generation = 0

    def create_table(self, name, schema):
        """Create and register a new table; returns it."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        if isinstance(schema, (list, tuple)):
            schema = Schema.build(*schema)
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name):
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def __contains__(self, name):
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    @property
    def table_names(self):
        """Sorted names of all tables."""
        return sorted(self._tables)

    def build_indexes(self):
        """(Re)build fuzzy indexes for every indexed attribute.

        Call after bulk loading.  Indexes built earlier are discarded,
        so this is safe to call repeatedly; each call bumps
        :attr:`generation`.
        """
        self._indexes = {}
        self.generation += 1
        for table in self._tables.values():
            for attribute in table.schema.indexed_attributes():
                index = build_index_for_attribute(attribute.type)
                for entity in table:
                    value = entity.values.get(attribute.name)
                    if value is not None:
                        index.add(entity.entity_id, str(value))
                self._indexes[(table.name, attribute.name)] = index

    def index_for(self, table_name, attribute_name):
        """The index over ``table.attribute``; raises if not indexed/built."""
        try:
            return self._indexes[(table_name, attribute_name)]
        except KeyError:
            raise KeyError(
                f"no index for {table_name}.{attribute_name}; is the "
                "attribute flagged indexed=True and build_indexes() called?"
            ) from None

    def has_index(self, table_name, attribute_name):
        """True when a built fuzzy index covers the attribute."""
        return (table_name, attribute_name) in self._indexes

    def candidates(self, table_name, attribute_name, query, limit=50):
        """Candidate entities whose attribute value may match ``query``.

        Returns a list of entities, most-promising first, by delegating
        to the attribute's fuzzy index.  This is the candidate-generation
        step the paper relies on to avoid "computing scores explicitly
        for all entities".
        """
        index = self.index_for(table_name, attribute_name)
        table = self._tables[table_name]
        return [
            table.get(entity_id)
            for entity_id in index.candidates(str(query), limit=limit)
        ]

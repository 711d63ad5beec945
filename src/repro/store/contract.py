"""Concept-key vocabulary of the concept index.

The mining analytics (paper Section IV-D) run against an inverted
index of *concept keys*.  Two key families exist so that one analysis
can mix both sides of the house ("Some of these concepts could be
dimensions from unstructured data and others could be from structured
data", Section IV-D.2):

* ``concept_key(category, canonical)`` — an annotation-engine concept,
* ``field_key(name, value)`` — a structured attribute of the linked
  record.

The constructors live in the store layer (below mining) because they
are pure storage vocabulary: they know nothing about any analytic.
The index itself is :class:`~repro.mining.index.ConceptIndex`.
"""


def concept_key(category, canonical):
    """Key for an unstructured concept occurrence."""
    return ("concept", category, str(canonical))


def field_key(name, value):
    """Key for a structured field value of the linked record."""
    return ("field", name, str(value))

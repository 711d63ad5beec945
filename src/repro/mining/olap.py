"""OLAP-style slicing over the concept index.

Paper §II: BI systems are consumed "in a variety of ways like real
time dashboards, interactive OLAP tools or static reports".  The
two-dimensional association table is one fixed view; this module
generalises it to an n-dimensional cube over concept-index dimensions
with the classic operations — slice, dice, roll-up — so analysts can
pivot freely between unstructured concepts and structured fields.

:func:`cube_cells` counts documents per cell coordinate, and
:func:`concept_cube` wraps those counts in a :class:`ConceptCube` (see
:mod:`repro.mining.analytic`).
"""

from collections import Counter
from dataclasses import dataclass

from repro.mining.analytic import Analytic, compute


@dataclass(frozen=True)
class CubeCell:
    """One cell of a materialised cube view."""

    coordinates: tuple  # one value per dimension, in cube order
    count: int


def cube_coordinate(keys, dimensions):
    """One document's cell coordinate from its key set.

    Per dimension: the single observed value, ``None`` when the
    document misses the dimension (totals stay conserved), or
    ``"<multi>"`` for multi-valued documents (contributing to each
    value would double-count).
    """
    coordinate = []
    for dimension in dimensions:
        values = sorted(
            key[2] for key in keys if key[:2] == dimension
        )
        if len(values) == 1:
            coordinate.append(values[0])
        elif not values:
            coordinate.append(None)
        else:
            coordinate.append("<multi>")
    return tuple(coordinate)


def cube_cells(index, dimensions):
    """Coordinate -> document count over one index's documents."""
    cells = Counter()
    for doc_id in index.document_ids:
        coordinate = cube_coordinate(index.keys_of(doc_id), dimensions)
        cells[coordinate] += 1
    return cells


class ConceptCube:
    """An n-dimensional count cube over a concept index.

    Dimensions are the index's ``("concept", category)`` /
    ``("field", name)`` pairs.  A document contributes to a cell when it
    carries exactly one value of every dimension; documents missing a
    dimension fall into the ``None`` bucket so totals are conserved.

    Build one with :func:`concept_cube`; ``cells`` is the
    :func:`cube_cells` count of ``index`` over ``dimensions``.
    """

    def __init__(self, index, dimensions, cells):
        self.index = index
        self.dimensions = dimensions
        self._cells = cells

    def __eq__(self, other):
        """Value equality over dimensions and cell counts.

        The backing index is excluded (see
        :meth:`AssociationTable.__eq__ <repro.mining.assoc2d.AssociationTable.__eq__>`
        for the rationale): a cube over an epoch snapshot equals the
        cube over any index holding the same documents.
        """
        if not isinstance(other, ConceptCube):
            return NotImplemented
        return (
            self.dimensions == other.dimensions
            and self._cells == other._cells
        )

    __hash__ = None  # value-equal and mutable-adjacent: not hashable

    @property
    def total(self):
        """Total documents in the cube (all cells summed)."""
        return sum(self._cells.values())

    def cells(self, include_empty_coordinates=False):
        """All non-zero cells, largest first."""
        cells = [
            CubeCell(coordinates=coordinates, count=count)
            for coordinates, count in self._cells.items()
            if include_empty_coordinates
            or all(value is not None for value in coordinates)
        ]
        cells.sort(key=lambda cell: (-cell.count, str(cell.coordinates)))
        return cells

    def slice(self, dimension, value):
        """Fix one dimension to a value; returns a smaller cube view.

        The result is a dict from the remaining coordinates to counts.
        """
        dimension = tuple(dimension)
        try:
            axis = self.dimensions.index(dimension)
        except ValueError:
            raise KeyError(f"no dimension {dimension!r} in cube") from None
        sliced = Counter()
        for coordinates, count in self._cells.items():
            if coordinates[axis] == value:
                remaining = (
                    coordinates[:axis] + coordinates[axis + 1 :]
                )
                sliced[remaining] += count
        return dict(sliced)

    def dice(self, predicate):
        """Keep only cells whose coordinates satisfy ``predicate``."""
        return {
            coordinates: count
            for coordinates, count in self._cells.items()
            if predicate(coordinates)
        }

    def rollup(self, keep_dimensions):
        """Aggregate away all dimensions not in ``keep_dimensions``.

        Returns ``{reduced_coordinates: count}`` in the order of
        ``keep_dimensions``.
        """
        keep = [tuple(d) for d in keep_dimensions]
        axes = []
        for dimension in keep:
            try:
                axes.append(self.dimensions.index(dimension))
            except ValueError:
                raise KeyError(
                    f"no dimension {dimension!r} in cube"
                ) from None
        rolled = Counter()
        for coordinates, count in self._cells.items():
            rolled[tuple(coordinates[axis] for axis in axes)] += count
        return dict(rolled)

    def margin(self, dimension):
        """The 1-D marginal counts of one dimension."""
        return {
            coordinates[0]: count
            for coordinates, count in self.rollup([dimension]).items()
        }


def concept_cube(index, dimensions):
    """Materialise a :class:`ConceptCube` over ``dimensions``.

    ``dimensions`` is the cube's ordered, non-empty dimension list.
    """
    if not dimensions:
        raise ValueError("cube needs at least one dimension")
    dimensions = [tuple(d) for d in dimensions]
    return compute(Analytic(
        "concept-cube",
        lambda counted: cube_cells(counted, dimensions),
        lambda cells: ConceptCube(index, dimensions, cells),
        pure=True,
    ), index)

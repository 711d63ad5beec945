"""Two-dimensional association analysis (paper Section IV-D.2, Eqn 4).

Fills a table whose rows and columns are concept dimensions (vehicle
types x locations in Table II; customer intent x call outcome in
Table III) by counting co-occurring documents, and scores each cell
with the *lower interval terminal* of the lift

    (N_cell / N) / ((N_ver / N) * (N_hor / N))

so sparse cells cannot fake strong associations.  Cells support
drill-down to the underlying documents (Fig 4).

:func:`association_counts` counts rows, columns and cells as
integers, and :func:`association_table` computes the interval bounds
once from those integers (see :mod:`repro.mining.analytic`).
"""

from dataclasses import dataclass

from repro.mining.analytic import Analytic, compute
from repro.obs import get_metrics
from repro.util.intervals import (
    check_cell_counts,
    check_interval_options,
    lift_from_terminals,
    lift_point_estimate,
    proportion_interval,
)


@dataclass(frozen=True)
class AssociationCell:
    """One (row, column) cell of the association table."""

    row_value: str
    col_value: str
    count: int
    row_total: int
    col_total: int
    grand_total: int
    strength: float  # interval lower bound of the lift
    point_lift: float

    @property
    def row_share(self):
        """Within-row share: count / row marginal (Table III/IV style)."""
        if self.row_total == 0:
            return 0.0
        return self.count / self.row_total


class AssociationTable:
    """The filled two-dimensional association table."""

    def __init__(self, index, row_dimension, col_dimension, cells,
                 row_values, col_values):
        self._index = index
        self.row_dimension = tuple(row_dimension)
        self.col_dimension = tuple(col_dimension)
        self.row_values = list(row_values)
        self.col_values = list(col_values)
        self._cells = cells

    def __eq__(self, other):
        """Value equality over the analytic content.

        Two tables are equal when their dimensions, value orders and
        every :class:`AssociationCell` match exactly — the backing
        index is deliberately excluded, so a table computed on an
        epoch snapshot equals one computed on an independently rebuilt
        index of the same corpus (the serving layer's bit-identity
        contract).
        """
        if not isinstance(other, AssociationTable):
            return NotImplemented
        return (
            self.row_dimension == other.row_dimension
            and self.col_dimension == other.col_dimension
            and self.row_values == other.row_values
            and self.col_values == other.col_values
            and self._cells == other._cells
        )

    __hash__ = None  # value-equal and mutable-adjacent: not hashable

    def cell(self, row_value, col_value):
        """The :class:`AssociationCell` at (row, col)."""
        try:
            return self._cells[(str(row_value), str(col_value))]
        except KeyError:
            raise KeyError(
                f"no cell ({row_value!r}, {col_value!r}) in table"
            ) from None

    def cells(self):
        """All cells, row-major."""
        return [
            self._cells[(row, col)]
            for row in self.row_values
            for col in self.col_values
        ]

    def strongest(self, n=5, min_count=1):
        """Cells with the highest interval-bounded strength."""
        ranked = [
            cell for cell in self.cells() if cell.count >= min_count
        ]
        ranked.sort(
            key=lambda c: (-c.strength, c.row_value, c.col_value)
        )
        return ranked[:n]

    def documents(self, row_value, col_value):
        """Drill down: the doc ids behind one cell (Fig 4)."""
        row_key = self.row_dimension + (str(row_value),)
        col_key = self.col_dimension + (str(col_value),)
        return sorted(
            self._index.documents_with(row_key)
            & self._index.documents_with(col_key),
            key=str,
        )

    def row_share_matrix(self):
        """{row: {col: within-row share}} — the Table III/IV view."""
        return {
            row: {
                col: self._cells[(row, col)].row_share
                for col in self.col_values
            }
            for row in self.row_values
        }


def association_counts(index, row_dimension, col_dimension, row_values,
                       col_values):
    """The index's marginal and cell counts (integers only).

    Returns ``(grand_total, row_totals, col_totals, pairs)``.  The
    totals are keyed in table order (``None`` values default to every
    observed value); ``pairs`` holds the non-zero cell counts.
    """
    if row_values is None:
        row_values = index.values_of_dimension(row_dimension)
    if col_values is None:
        col_values = index.values_of_dimension(col_dimension)
    row_totals = {}
    col_totals = {}
    pairs = {}
    col_views = {}
    for col_value in col_values:
        view = index.postings_view(col_dimension + (col_value,))
        col_views[col_value] = view
        col_totals[col_value] = len(view)
    for row_value in row_values:
        row_view = index.postings_view(row_dimension + (row_value,))
        row_totals[row_value] = len(row_view)
        if not row_view:
            continue
        for col_value in col_values:
            count = len(row_view & col_views[col_value])
            if count:
                pairs[(row_value, col_value)] = count
    return len(index), row_totals, col_totals, pairs


def association_table(counts, index, row_dimension, col_dimension,
                      confidence, interval_method):
    """Score every cell of :func:`association_counts`' counts.

    A marginal's upper interval terminal depends only on its total, so
    each row's and each column's is computed once here; a cell
    computes only its own lower terminal.  That is
    ``cells + rows + cols`` interval evaluations per table, counted on
    ``mining.associate.intervals``.  ``index`` backs the table's
    drill-down.
    """
    grand_total, row_totals, col_totals, pairs = counts
    if grand_total == 0:
        raise ValueError("cannot analyse an empty index")

    def upper_terminals(totals):
        return {
            value: proportion_interval(
                total, grand_total, confidence=confidence,
                method=interval_method,
            )[1]
            for value, total in totals.items()
        }

    row_high = upper_terminals(row_totals)
    col_high = upper_terminals(col_totals)
    cells = {}
    for row_value, row_total in row_totals.items():
        for col_value, col_total in col_totals.items():
            count = pairs.get((row_value, col_value), 0)
            check_cell_counts(count, row_total, col_total, grand_total)
            cell_low, _ = proportion_interval(
                count, grand_total, confidence=confidence,
                method=interval_method,
            )
            cells[(row_value, col_value)] = AssociationCell(
                row_value=row_value,
                col_value=col_value,
                count=count,
                row_total=row_total,
                col_total=col_total,
                grand_total=grand_total,
                strength=lift_from_terminals(
                    cell_low, row_high[row_value], col_high[col_value]
                ),
                point_lift=lift_point_estimate(
                    count, row_total, col_total, grand_total
                ),
            )
    get_metrics().counter("mining.associate.intervals").inc(
        len(row_high) + len(col_high) + len(cells)
    )
    return AssociationTable(
        index, row_dimension, col_dimension, cells,
        row_totals, col_totals,
    )


def _distinct_values(values, what):
    """``values`` as a list (``None`` kept); duplicates raise."""
    if values is None:
        return None
    values = list(values)
    if len(set(values)) != len(values):
        raise ValueError(f"{what} lists a value twice: {values!r}")
    return values


def associate(index, row_dimension, col_dimension, confidence=0.95,
              interval_method="wilson", row_values=None, col_values=None):
    """Run the two-dimensional association analysis.

    Dimensions are ``("concept", category)`` or ``("field", name)``.
    ``row_values``/``col_values`` default to every observed value and
    must not list a value twice.  A confidence outside (0, 1), an
    unknown interval method or a repeated value raises ``ValueError``
    before anything is counted.
    """
    check_interval_options(confidence, interval_method)
    row_dimension = tuple(row_dimension)
    col_dimension = tuple(col_dimension)
    row_values = _distinct_values(row_values, "row_values")
    col_values = _distinct_values(col_values, "col_values")
    return compute(Analytic(
        "associate",
        lambda counted: association_counts(
            counted, row_dimension, col_dimension, row_values, col_values
        ),
        lambda counts: association_table(
            counts, index, row_dimension, col_dimension, confidence,
            interval_method,
        ),
        pure=True,
    ), index)

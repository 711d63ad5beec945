"""Two-dimensional association analysis (paper Section IV-D.2, Eqn 4).

Fills a table whose rows and columns are concept dimensions (vehicle
types x locations in Table II; customer intent x call outcome in
Table III) by counting co-occurring documents, and scores each cell
with the *lower interval terminal* of the lift

    (N_cell / N) / ((N_ver / N) * (N_hor / N))

so sparse cells cannot fake strong associations.  Cells support
drill-down to the underlying documents (Fig 4).

Counting runs through the partial/finalize form of
:mod:`repro.mining.algebra`: the partial counts rows, columns and
cells as integers, and the interval bounds are computed once from
those integers.
"""

from dataclasses import dataclass

from repro.mining.algebra import PartialAggregate, compute
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


class AssociationAggregate(PartialAggregate):
    """The 2-D association analysis as an aggregate.

    Partial state: the index's document total plus integer row, column
    and co-occurrence counts.
    """

    analytic = "associate"

    def __init__(self, row_dimension, col_dimension, confidence=0.95,
                 interval_method="wilson", row_values=None,
                 col_values=None):
        """Dimension pair plus scoring knobs; see :func:`associate`.

        Raises ``ValueError`` for a confidence outside (0, 1), an
        unknown interval method, or a value listed twice in
        ``row_values``/``col_values`` (its cells would be scored and
        ranked twice).
        """
        check_interval_options(confidence, interval_method)
        self.row_dimension = tuple(row_dimension)
        self.col_dimension = tuple(col_dimension)
        self.confidence = confidence
        self.interval_method = interval_method
        self.row_values = _distinct_values(row_values, "row_values")
        self.col_values = _distinct_values(col_values, "col_values")

    def partial(self, index):
        """The index's marginal and cell counts (integers only)."""
        if self.row_values is None:
            row_values = index.values_of_dimension(self.row_dimension)
        else:
            row_values = self.row_values
        if self.col_values is None:
            col_values = index.values_of_dimension(self.col_dimension)
        else:
            col_values = self.col_values
        row_totals = {}
        col_totals = {}
        pairs = {}
        col_views = {}
        for col_value in col_values:
            view = index.postings_view(
                self.col_dimension + (col_value,)
            )
            col_views[col_value] = view
            col_totals[col_value] = len(view)
        for row_value in row_values:
            row_view = index.postings_view(
                self.row_dimension + (row_value,)
            )
            row_totals[row_value] = len(row_view)
            if not row_view:
                continue
            for col_value in col_values:
                count = len(row_view & col_views[col_value])
                if count:
                    pairs[(row_value, col_value)] = count
        return {
            "grand_total": len(index),
            "row_totals": row_totals,
            "col_totals": col_totals,
            "pairs": pairs,
        }

    def finalize(self, state, index):
        """Score every cell from the integer counts.

        A marginal's upper interval terminal depends only on its total,
        so each row's and each column's is computed once here; a cell
        computes only its own lower terminal.  That is
        ``cells + rows + cols`` interval evaluations per table, counted
        on ``mining.associate.intervals``.
        """
        grand_total = state["grand_total"]
        if grand_total == 0:
            raise ValueError("cannot analyse an empty index")
        # The partial keyed every total in table order.
        row_totals = state["row_totals"]
        col_totals = state["col_totals"]
        row_values = list(row_totals)
        col_values = list(col_totals)
        row_high = self._upper_terminals(row_totals, grand_total)
        col_high = self._upper_terminals(col_totals, grand_total)
        cells = {}
        for row_value in row_values:
            row_total = row_totals[row_value]
            for col_value in col_values:
                count = state["pairs"].get((row_value, col_value), 0)
                col_total = col_totals[col_value]
                check_cell_counts(count, row_total, col_total, grand_total)
                cell_low, _ = proportion_interval(
                    count,
                    grand_total,
                    confidence=self.confidence,
                    method=self.interval_method,
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
            len(row_high) + len(col_high)
            + len(row_values) * len(col_values)
        )
        return AssociationTable(
            index, self.row_dimension, self.col_dimension, cells,
            row_values, col_values,
        )

    def _upper_terminals(self, totals, grand_total):
        """``{value: upper interval terminal of its marginal density}``."""
        return {
            value: proportion_interval(
                total,
                grand_total,
                confidence=self.confidence,
                method=self.interval_method,
            )[1]
            for value, total in totals.items()
        }


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
    must not list a value twice.
    """
    aggregate = AssociationAggregate(
        row_dimension,
        col_dimension,
        confidence=confidence,
        interval_method=interval_method,
        row_values=row_values,
        col_values=col_values,
    )
    return compute(aggregate, index)

"""Sparse exact Gaussian elimination.

Two kernels are provided on lists of :class:`~repro.linalg.vector.SparseVector`
rows:

* :func:`rref` — reduced row-echelon form with a caller-controlled column
  (pivot preference) order, used to canonicalise invariant sets.
* :func:`eliminate_columns` — project the row space onto the complement of a
  set of columns.  This is the core operation of Chatterjee–Kishinevsky
  invariant generation: transfer-count (λ) and transition-count (κ) columns
  are swept away and the surviving rows are invariants over queue occupancy
  and automaton-state columns only.

Both kernels maintain the Gauss–Jordan invariant that every pivot column
occurs in exactly one row, which makes the "rows free of the eliminated
columns span exactly the eliminable subspace of the row space" argument
immediate.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..util.exact import Rational, exact_div
from .vector import SparseVector

__all__ = ["rref", "eliminate_columns", "row_space_contains", "rank"]


def _reduce_against(row: SparseVector, pivots: dict[int, SparseVector]) -> None:
    """Subtract pivot rows from ``row`` until it has no pivot-column support.

    Pivot rows never contain other pivot columns (Gauss–Jordan invariant), so
    one pass over a snapshot of the support suffices.
    """
    for col in list(row.columns()):
        coeff = row[col]
        if not coeff:
            continue
        pivot_row = pivots.get(col)
        if pivot_row is not None:
            row.add_scaled_inplace(pivot_row, -coeff)


def _install_pivot(
    row: SparseVector, pivot_col: int, pivots: dict[int, SparseVector]
) -> None:
    """Normalise ``row`` on ``pivot_col`` and back-substitute into ``pivots``."""
    pivot = row[pivot_col]
    if pivot != 1:
        # A ±1 pivot (the common case on flow matrices) needs no division.
        row.scale_inplace(-1 if pivot == -1 else exact_div(1, pivot))
    for other in pivots.values():
        coeff = other[pivot_col]
        if coeff:
            other.add_scaled_inplace(row, -coeff)
    pivots[pivot_col] = row


def rref(
    rows: Iterable[SparseVector],
    pivot_key: Callable[[int], object] | None = None,
) -> tuple[list[SparseVector], list[int]]:
    """Reduced row-echelon form of ``rows``.

    Parameters
    ----------
    rows:
        The matrix rows; the inputs are not mutated.
    pivot_key:
        Sort key ranking candidate pivot columns within a row; the smallest
        key wins.  Defaults to the column index itself, giving the textbook
        leftmost-pivot RREF.

    Returns
    -------
    (reduced_rows, pivot_columns):
        ``reduced_rows`` sorted by pivot key, each scaled to a unit pivot;
        ``pivot_columns[i]`` is the pivot column of ``reduced_rows[i]``.
    """
    key = pivot_key if pivot_key is not None else (lambda col: col)
    pivots: dict[int, SparseVector] = {}
    for original in rows:
        row = original.copy()
        _reduce_against(row, pivots)
        if not row:
            continue
        pivot_col = min(row.columns(), key=key)
        _install_pivot(row, pivot_col, pivots)
    ordered = sorted(pivots.items(), key=lambda item: key(item[0]))
    return [row for _, row in ordered], [col for col, _ in ordered]


def eliminate_columns(
    rows: Iterable[SparseVector], eliminate: frozenset[int] | set[int]
) -> list[SparseVector]:
    """Project the row space of ``rows`` away from the ``eliminate`` columns.

    Returns a basis (in RREF over the kept columns) of the subspace of the
    row space whose members have zero coefficients on every eliminated
    column.  For flow matrices this is exactly the set of independent
    invariants that mention only state variables and queue occupancies.
    """
    pivots: dict[int, SparseVector] = {}
    leftover: list[SparseVector] = []
    for original in rows:
        row = original.copy()
        _reduce_against(row, pivots)
        if not row:
            continue
        elim_support = [col for col in row.columns() if col in eliminate]
        if elim_support:
            _install_pivot(row, min(elim_support), pivots)
        else:
            leftover.append(row)
    reduced, _ = rref(leftover)
    return reduced


def row_space_contains(
    rows: Sequence[SparseVector], candidate: SparseVector
) -> bool:
    """True iff ``candidate`` is a linear combination of ``rows``.

    Test helper: used to check that generated invariants lie in the flow
    matrix row space and that published invariants are derivable.
    """
    reduced, _ = rref(rows)
    pivots = {min(r.columns()): r for r in reduced}
    probe = candidate.copy()
    _reduce_against(probe, pivots)
    # One pass may be insufficient for an arbitrary pivot layout; rref rows
    # satisfy the Gauss-Jordan invariant, so a second pass is a no-op check.
    return not probe


def rank(rows: Iterable[SparseVector]) -> int:
    """Rank of the matrix formed by ``rows``."""
    reduced, _ = rref(rows)
    return len(reduced)


def evaluate(row: SparseVector, assignment: Mapping[int, Rational]) -> Rational:
    """Evaluate a row as a linear form over ``assignment`` (missing = 0)."""
    return row.dot(assignment)

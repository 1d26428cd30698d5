"""Exact sparse rational linear algebra.

This subpackage is the numeric substrate of the invariant generator: flow
matrices are built as lists of :class:`SparseVector` rows and reduced with
:func:`eliminate_columns` / :func:`rref`.  All arithmetic is exact:
coefficients are ints unless truly non-integral, then
:class:`fractions.Fraction` (see :mod:`repro.util.exact`).
"""

from .matrix import eliminate_columns, rank, row_space_contains, rref
from .vector import SparseVector

__all__ = [
    "SparseVector",
    "rref",
    "eliminate_columns",
    "row_space_contains",
    "rank",
]

"""Sparse rational vectors.

A :class:`SparseVector` maps integer column indices to non-zero exact
rational coefficients.  It is the row representation used throughout the
invariant-generation pipeline, where flow matrices are extremely sparse (a
handful of non-zeros per equation over tens of thousands of columns).

All arithmetic is exact; zeros are never stored.  Coefficients are kept in
the canonical form of :mod:`repro.util.exact`: a plain ``int`` unless truly
non-integral, never a ``Fraction`` of denominator 1, so the mostly-integral
flow matrices are reduced on machine ints.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Mapping

from ..util.exact import Rational, exact, exact_div

__all__ = ["SparseVector"]


class SparseVector:
    """An immutable-by-convention sparse vector of exact rationals.

    The underlying storage is a plain ``dict`` for speed; mutating helpers
    (``add_scaled_inplace``) are clearly named and used only inside the
    elimination kernels.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, Rational] | None = None):
        self.entries: dict[int, Rational] = {}
        if entries:
            for col, value in entries.items():
                value = exact(value)
                if value:
                    self.entries[col] = value

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def unit(cls, col: int) -> "SparseVector":
        """The standard basis vector with a 1 in position ``col``."""
        return cls({col: 1})

    def copy(self) -> "SparseVector":
        fresh = SparseVector()
        fresh.entries = dict(self.entries)
        return fresh

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, Rational]]:
        return iter(self.entries.items())

    def __contains__(self, col: int) -> bool:
        return col in self.entries

    def __getitem__(self, col: int) -> Rational:
        return self.entries.get(col, 0)

    def get(self, col: int, default: Rational = 0) -> Rational:
        return self.entries.get(col, exact(default))

    def columns(self) -> Iterable[int]:
        return self.entries.keys()

    def support(self) -> frozenset[int]:
        """The set of columns holding non-zero coefficients."""
        return frozenset(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{c}: {v}" for c, v in sorted(self.entries.items()))
        return f"SparseVector({{{body}}})"

    # ------------------------------------------------------------------
    # Arithmetic (pure)
    # ------------------------------------------------------------------
    def scaled(self, factor: Rational) -> "SparseVector":
        fresh = self.copy()
        fresh.scale_inplace(factor)
        return fresh

    def __add__(self, other: "SparseVector") -> "SparseVector":
        result = self.copy()
        result.add_scaled_inplace(other, 1)
        return result

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        result = self.copy()
        result.add_scaled_inplace(other, -1)
        return result

    def __neg__(self) -> "SparseVector":
        return self.scaled(-1)

    def dot(self, assignment: Mapping[int, Rational]) -> Rational:
        """Evaluate the linear form at ``assignment`` (missing columns = 0)."""
        total = 0
        for col, coeff in self.entries.items():
            value = assignment.get(col)
            if value is not None:
                total += coeff * exact(value)
        return exact(total)

    # ------------------------------------------------------------------
    # Arithmetic (in place, used by elimination kernels)
    # ------------------------------------------------------------------
    def add_scaled_inplace(self, other: "SparseVector", factor: Rational) -> None:
        """``self += factor * other`` without allocating a new vector."""
        factor = exact(factor)
        if not factor:
            return
        entries = self.entries
        for col, value in other.entries.items():
            updated = entries.get(col, 0) + value * factor
            if updated:
                entries[col] = updated if updated.__class__ is int else exact(updated)
            else:
                entries.pop(col, None)

    def scale_inplace(self, factor: Rational) -> None:
        factor = exact(factor)
        if factor == 1:
            return
        entries = self.entries
        if not factor:
            entries.clear()
            return
        if factor.__class__ is int:
            # int × int is an int; a non-integral Fraction × int may not be.
            for col, value in entries.items():
                scaled = value * factor
                entries[col] = scaled if scaled.__class__ is int else exact(scaled)
        else:
            for col, value in entries.items():
                entries[col] = exact(value * factor)

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    def normalized_integer(self) -> "SparseVector":
        """Scale to coprime integer coefficients with a canonical sign.

        The sign convention makes the coefficient of the smallest-index
        column positive, which gives a unique representative per ray and
        keeps printed invariants deterministic.
        """
        if not self.entries:
            return SparseVector()
        denominator_lcm = 1
        for value in self.entries.values():
            denominator_lcm = denominator_lcm * value.denominator // gcd(
                denominator_lcm, value.denominator
            )
        numerator_gcd = 0
        for value in self.entries.values():
            numerator_gcd = gcd(numerator_gcd, abs(value.numerator * (denominator_lcm // value.denominator)))
        result = self.scaled(exact_div(denominator_lcm, numerator_gcd))
        lead_col = min(result.entries)
        if result.entries[lead_col] < 0:
            result.scale_inplace(-1)
        return result

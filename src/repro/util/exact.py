"""Canonical exact rationals: ``int`` unless truly non-integral.

Both exact kernels (the simplex in :mod:`repro.smt.simplex` and the sparse
elimination in :mod:`repro.linalg`) keep every stored value in one canonical
form: a Python ``int`` when the value is integral, a
:class:`~fractions.Fraction` only when its denominator exceeds 1.  Ints and
Fractions compare, hash and combine exactly with each other, so the form
changes no result — but on the mostly-integral states these kernels produce,
it keeps arithmetic and comparisons on machine ints instead of
``Fraction`` objects.

Only division can leave the integers, and an integral ``Fraction`` result
of ``+``/``*`` must be turned back into an ``int``; :func:`exact_div` and
:func:`exact` are the two places that happen.  Hot loops test
``value.__class__ is int`` inline and call :func:`exact` only on the rare
non-int value.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Rational", "exact", "exact_div"]

Rational = Fraction | int


def exact(value) -> Rational:
    """``value`` in canonical form (``int`` if integral, else ``Fraction``).

    Non-``int``, non-``Fraction`` numbers (``bool``, ``float``, other
    :class:`numbers.Rational` types) are converted exactly first.
    """
    if value.__class__ is int:
        return value
    if value.__class__ is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return value


def exact_div(numerator: Rational, denominator: Rational) -> Rational:
    """``numerator / denominator`` exactly, in canonical form.

    Division by ±1 builds no ``Fraction``; neither does an int quotient
    that divides evenly.
    """
    if denominator == 1:
        return numerator
    if denominator == -1:
        return -numerator
    if numerator.__class__ is int and denominator.__class__ is int:
        quotient, remainder = divmod(numerator, denominator)
        if not remainder:
            return quotient
        return Fraction(numerator, denominator)
    # At least one side is a Fraction, so ``/`` is exact (int / int is the
    # only case that would fall to float).
    return exact(numerator / denominator)

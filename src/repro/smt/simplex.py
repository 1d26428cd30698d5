"""Incremental exact simplex for linear rational arithmetic.

This is the *general simplex* of Dutertre and de Moura ("A Fast
Linear-Arithmetic Solver for DPLL(T)", CAV 2006): variables carry dynamic
lower/upper bounds asserted and retracted by the SAT search, a tableau of
linear definitions relates *basic* to *non-basic* variables, and
:meth:`Simplex.check` restores feasibility by Bland-rule pivoting or reports
a minimal-ish conflict (the bounds of one infeasible row).

All arithmetic is exact.  Every stored value — tableau coefficients and
assignment values β — is kept in the canonical form of
:mod:`repro.util.exact`: a plain machine ``int`` unless it is truly
non-integral, and never a ``Fraction`` of denominator 1.  Python ints and
:class:`fractions.Fraction` interoperate exactly, so the form changes no
result; it keeps the hot bound-assertion path on C-int comparisons instead
of ``Fraction.__richcmp__``.  Only division leaves the integers: a ±1 pivot
(the common case on the encodings the engine generates) divides without
building a ``Fraction``, and every update that can produce a ``Fraction``
demotes an integral result back to ``int``.  Bound retraction is O(1) per
change via an undo trail; pivots are never undone (the tableau is a basis
change, not a logical state).

The immediate two-bound conflict of :meth:`Simplex.assert_upper` /
:meth:`Simplex.assert_lower` (a new bound crossing the opposite bound on
the same variable) is a safety net: the theory bridge's bound axioms
(:mod:`repro.smt.lia`) let the SAT core propagate every such implication
between registered atoms before the simplex sees the clash.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..util.exact import exact, exact_div

__all__ = ["Simplex", "Conflict"]

_NO_BOUND = None


class Conflict(Exception):
    """Raised internally to surface an infeasible bound set.

    ``reasons`` holds the SAT literals whose asserted bounds are jointly
    infeasible.
    """

    def __init__(self, reasons: list[int]):
        super().__init__(f"theory conflict from {reasons}")
        self.reasons = reasons


class Simplex:
    """Exact rational simplex with incremental bound assertion."""

    def __init__(self) -> None:
        self._n = 0
        # Per-variable state (indexed by theory-variable id).
        self._lower: list[Fraction | int | None] = []
        self._upper: list[Fraction | int | None] = []
        self._lower_reason: list[int | None] = []
        self._upper_reason: list[int | None] = []
        self._beta: list[Fraction | int] = []
        # Tableau: row per basic variable, mapping non-basic var -> coeff.
        self._rows: dict[int, dict[int, Fraction | int]] = {}
        # Column index: non-basic var -> set of basic vars whose row uses it.
        self._cols: dict[int, set[int]] = {}
        # Undo trail of (var, 'L'/'U', old_bound, old_reason).
        self._undo: list[tuple[int, str, Fraction | int | None, int | None]] = []
        # Basic variables whose β may violate a bound (lazily validated).
        self._dirty: set[int] = set()
        # Pivots performed so far (a deterministic work counter).
        self.pivots = 0

    # ------------------------------------------------------------------
    # Variable and row registration
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        var = self._n
        self._n += 1
        self._lower.append(_NO_BOUND)
        self._upper.append(_NO_BOUND)
        self._lower_reason.append(None)
        self._upper_reason.append(None)
        self._beta.append(0)
        return var

    def define(self, combo: Mapping[int, Fraction | int]) -> int:
        """Create a slack variable ``s`` with the invariant ``s = combo``.

        ``combo`` may mention both basic and non-basic variables; basic ones
        are substituted by their rows so the new row only mentions non-basic
        variables.  The new variable starts basic.
        """
        slack = self.new_var()
        row: dict[int, Fraction | int] = {}
        for var, coeff in combo.items():
            definition = self._rows.get(var)
            if definition is None:
                self._row_add(row, var, coeff)
            else:
                for inner, inner_coeff in definition.items():
                    self._row_add(row, inner, coeff * inner_coeff)
        self._rows[slack] = row
        for var in row:
            self._cols.setdefault(var, set()).add(slack)
        self._beta[slack] = exact(
            sum((coeff * self._beta[var] for var, coeff in row.items()), 0)
        )
        return slack

    @staticmethod
    def _row_add(row: dict[int, Fraction | int], var: int, coeff: Fraction | int) -> None:
        updated = row.get(var, 0) + coeff
        if updated:
            row[var] = updated if updated.__class__ is int else exact(updated)
        else:
            row.pop(var, None)

    # ------------------------------------------------------------------
    # Bound assertion (the theory-literal interface)
    # ------------------------------------------------------------------
    def undo_length(self) -> int:
        return len(self._undo)

    def undo_to(self, length: int) -> None:
        while len(self._undo) > length:
            var, which, bound, reason = self._undo.pop()
            if which == "L":
                self._lower[var] = bound
                self._lower_reason[var] = reason
            else:
                self._upper[var] = bound
                self._upper_reason[var] = reason

    def assert_upper(self, var: int, bound: Fraction | int, reason: int) -> list[int] | None:
        """Assert ``var ≤ bound``; returns conflict reasons or None."""
        current = self._upper[var]
        if current is not None and current <= bound:
            return None
        lower = self._lower[var]
        if lower is not None and bound < lower:
            return [self._lower_reason[var], reason]  # type: ignore[list-item]
        self._undo.append((var, "U", current, self._upper_reason[var]))
        self._upper[var] = bound
        self._upper_reason[var] = reason
        if var in self._rows:
            if self._beta[var] > bound:
                self._dirty.add(var)
        elif self._beta[var] > bound:
            self._update_nonbasic(var, bound)
        return None

    def assert_lower(self, var: int, bound: Fraction | int, reason: int) -> list[int] | None:
        """Assert ``var ≥ bound``; returns conflict reasons or None."""
        current = self._lower[var]
        if current is not None and current >= bound:
            return None
        upper = self._upper[var]
        if upper is not None and bound > upper:
            return [self._upper_reason[var], reason]  # type: ignore[list-item]
        self._undo.append((var, "L", current, self._lower_reason[var]))
        self._lower[var] = bound
        self._lower_reason[var] = reason
        if var in self._rows:
            if self._beta[var] < bound:
                self._dirty.add(var)
        elif self._beta[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def _update_nonbasic(self, var: int, value: Fraction | int) -> None:
        beta = self._beta
        if value.__class__ is not int:
            value = exact(value)
        delta = value - beta[var]
        beta[var] = value
        for basic in self._cols.get(var, ()):
            updated = beta[basic] + self._rows[basic][var] * delta
            beta[basic] = updated if updated.__class__ is int else exact(updated)
            self._dirty.add(basic)

    # ------------------------------------------------------------------
    # Feasibility restoration
    # ------------------------------------------------------------------
    def check(self, full: bool = False) -> list[int] | None:
        """Restore bound-feasibility; returns conflict reasons or None.

        With ``full=True`` every row is re-validated instead of trusting the
        dirty-set bookkeeping; the theory bridge uses this as a safety net at
        full assignments.
        """
        if full:
            self._dirty.update(self._rows)
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return None
            basic, needs_increase = violated
            try:
                self._repair(basic, needs_increase)
            except Conflict as conflict:
                # Keep the violation visible: the conflicting bound will be
                # retracted on backjump, after which this row may still need
                # repair under the looser bounds.
                self._dirty.add(basic)
                return conflict.reasons

    def _violation(self, basic: int) -> bool | None:
        """None if within bounds, else True (below lower) / False (above upper)."""
        lower = self._lower[basic]
        if lower is not None and self._beta[basic] < lower:
            return True
        upper = self._upper[basic]
        if upper is not None and self._beta[basic] > upper:
            return False
        return None

    def _find_violated_basic(self) -> tuple[int, bool] | None:
        """Smallest violated basic variable (Bland's anti-cycling rule)."""
        stale: list[int] = []
        best: tuple[int, bool] | None = None
        for basic in self._dirty:
            if basic not in self._rows:
                stale.append(basic)
                continue
            direction = self._violation(basic)
            if direction is None:
                stale.append(basic)
            elif best is None or basic < best[0]:
                best = (basic, direction)
        for basic in stale:
            self._dirty.discard(basic)
        if best is not None:
            self._dirty.discard(best[0])
        return best

    def _repair(self, basic: int, needs_increase: bool) -> None:
        row = self._rows[basic]
        target = self._lower[basic] if needs_increase else self._upper[basic]
        assert target is not None
        candidate: int | None = None
        for var in sorted(row):
            coeff = row[var]
            grows = coeff > 0 if needs_increase else coeff < 0
            if grows:
                upper = self._upper[var]
                if upper is None or self._beta[var] < upper:
                    candidate = var
                    break
            else:
                lower = self._lower[var]
                if lower is None or self._beta[var] > lower:
                    candidate = var
                    break
        if candidate is None:
            reasons: list[int] = []
            own_reason = (
                self._lower_reason[basic] if needs_increase else self._upper_reason[basic]
            )
            reasons.append(own_reason)  # type: ignore[arg-type]
            for var, coeff in row.items():
                grows = coeff > 0 if needs_increase else coeff < 0
                reason = self._upper_reason[var] if grows else self._lower_reason[var]
                reasons.append(reason)  # type: ignore[arg-type]
            raise Conflict([r for r in reasons if r is not None])
        self._pivot_and_update(basic, candidate, target)

    def _pivot_and_update(self, basic: int, entering: int, value: Fraction | int) -> None:
        beta = self._beta
        theta = exact_div(value - beta[basic], self._rows[basic][entering])
        beta[basic] = exact(value)
        beta[entering] = exact(beta[entering] + theta)
        for other in self._cols.get(entering, ()):
            if other != basic:
                updated = beta[other] + self._rows[other][entering] * theta
                beta[other] = updated if updated.__class__ is int else exact(updated)
                self._dirty.add(other)
        self._pivot(basic, entering)
        # The entering variable is basic now and may overshoot its own
        # opposite bound; later iterations repair it.
        self._dirty.add(entering)

    def _pivot(self, leaving: int, entering: int) -> None:
        self.pivots += 1
        row = self._rows.pop(leaving)
        for var in row:
            self._cols[var].discard(leaving)
        coeff = row.pop(entering)
        if coeff == 1 or coeff == -1:
            # ±1 pivot: the coefficient is its own inverse and every product
            # stays canonical (int × ±1 is an int, a non-integral Fraction
            # × ±1 stays non-integral), so nothing is divided or demoted.
            new_row = {leaving: coeff}
            for var, c in row.items():
                new_row[var] = -c * coeff
        else:
            inv = exact_div(1, coeff)
            new_row = {leaving: inv}
            for var, c in row.items():
                new_row[var] = exact(-c * inv)
        self._rows[entering] = new_row
        cols = self._cols
        for var in new_row:
            cols.setdefault(var, set()).add(entering)
        # Substitute the entering variable out of every other row (the
        # _row_add update, inlined: this is the simplex's hottest loop).
        users = cols.pop(entering, set())
        users.discard(entering)
        for user in users:
            user_row = self._rows[user]
            factor = user_row.pop(entering)
            for var, c in new_row.items():
                old = user_row.get(var)
                if old is None:
                    updated = factor * c  # both non-zero
                    user_row[var] = updated if updated.__class__ is int else exact(updated)
                    cols[var].add(user)
                    continue
                updated = old + factor * c
                if updated:
                    user_row[var] = updated if updated.__class__ is int else exact(updated)
                else:
                    del user_row[var]
                    cols[var].discard(user)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def value(self, var: int) -> Fraction | int:
        return self._beta[var]

    def is_basic(self, var: int) -> bool:
        return var in self._rows

    def bounds(self, var: int) -> tuple[Fraction | int | None, Fraction | int | None]:
        return self._lower[var], self._upper[var]

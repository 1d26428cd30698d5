"""The linear-integer-arithmetic theory bridge.

Connects the CDCL core (:mod:`repro.smt.sat`) to the exact simplex
(:mod:`repro.smt.simplex`):

* every :class:`~repro.smt.terms.LinearAtom` whose SAT variable occurs in
  the CNF is registered here;
* single-variable atoms (``±x ≤ b``, which is what gcd normalisation reduces
  them to) assert bounds directly on the variable's theory column;
* multi-variable atoms get one shared *slack* variable per linear form
  (forms differing only by sign share the slack);
* a positive literal asserts the atom's ``≤`` bound, a negative literal the
  integer-negated ``≥`` bound;
* *bound axioms* (Dutertre & de Moura, CAV 2006) tell the SAT core how the
  atoms on one column are ordered: every atom literal reads ``column ≤ k``
  (or its integer negation ``¬(column ≤ k−1)``), registration keeps one
  ``k``-sorted chain of those literals per column, and each new atom emits
  binary clauses to its chain neighbours (``column ≤ k₁`` implies
  ``column ≤ k₂`` for ``k₁ ≤ k₂``; equal ``k`` gives an equivalence).  CDCL
  then propagates same-column implications instead of deciding them and
  having the simplex refute the clashes one conflict at a time.  Emission
  is incremental, so atoms registered later slot into existing chains;
  :class:`repro.smt.solver.Solver` drains :attr:`LiaBridge.pending_axioms`
  into the CDCL core after each sync's clauses;
* rational feasibility is enforced incrementally along the SAT trail, and
  integrality of the problem variables is obtained by branch-and-bound
  splitting, driven by :class:`repro.smt.solver.Solver`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .simplex import Simplex
from .terms import IntVar, LinearAtom

__all__ = ["LiaBridge"]


class LiaBridge:
    """Theory listener for the CDCL solver (see ``TheoryListener``)."""

    def __init__(self) -> None:
        self.simplex = Simplex()
        self._var_of_int: dict[IntVar, int] = {}
        self._slack_of_form: dict[tuple[tuple[int, int], ...], int] = {}
        # satvar -> (theory var, coeff sign, pos bound, neg bound);
        # "pos bound" is asserted as upper bound when the literal is positive.
        self._atom_info: dict[int, tuple[int, int, int]] = {}
        # Per-atom prebuilt assertion plans keyed by the *signed* literal:
        # assert_index is the solver's hottest theory path, so the bound
        # arithmetic happens once at registration, not per assertion.
        # Bounds stay machine ints; the simplex keeps every value an int
        # unless it is truly non-integral (see repro.smt.simplex).
        self._assert_plan: dict[int, tuple[bool, int, int]] = {}
        # SAT variables that carry a theory atom.  The CDCL core reads this
        # to skip pure-boolean trail literals without a call per literal.
        self.atom_vars: set[int] = set()
        # Sparse undo alignment with the SAT trail: (trail index, simplex
        # undo length before that assertion), one entry per *atom* literal
        # asserted.  Non-atom trail positions never touch the simplex, so
        # they need no mark.
        self._asserted: list[tuple[int, int]] = []
        # Bound-axiom chains: column -> sorted (k, literal) pairs where the
        # literal reads "column <= k".  New axioms wait in pending_axioms
        # until the solver hands them to the CDCL core.
        self._chains: dict[int, list[tuple[int, int]]] = {}
        self.pending_axioms: list[list[int]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def theory_var(self, var: IntVar) -> int:
        column = self._var_of_int.get(var)
        if column is None:
            column = self.simplex.new_var()
            self._var_of_int[var] = column
        return column

    def register_atom(self, satvar: int, atom: LinearAtom) -> None:
        """Make ``satvar``'s polarity control the constraint ``atom``."""
        if satvar in self._atom_info:
            return
        if len(atom.coeffs) == 1:
            var, coeff = atom.coeffs[0]
            # gcd normalisation leaves single-variable coefficients at ±1.
            assert coeff in (1, -1), atom
            column = self.theory_var(var)
            self._atom_info[satvar] = (column, coeff, atom.bound)
            self._plan_bounds(satvar, column, coeff, atom.bound)
            return
        form = tuple((v.uid, c) for v, c in atom.coeffs)
        sign = 1
        negated = tuple((uid, -c) for uid, c in form)
        if negated in self._slack_of_form:
            form, sign = negated, -1
        slack = self._slack_of_form.get(form)
        if slack is None:
            combo = {self.theory_var(v): c for v, c in atom.coeffs}
            slack = self.simplex.define(combo)
            self._slack_of_form[form] = slack
        self._atom_info[satvar] = (slack, sign, atom.bound)
        self._plan_bounds(satvar, slack, sign, atom.bound)

    def _plan_bounds(self, satvar: int, column: int, sign: int, bound: int) -> None:
        self.atom_vars.add(satvar)
        # sign=-1 means the shared slack carries the *negated* form, so the
        # atom "form <= bound" reads "slack >= -bound" on that column.
        if sign > 0:
            self._assert_plan[satvar] = (True, column, bound)
            self._assert_plan[-satvar] = (False, column, bound + 1)
            self._chain_axioms(column, bound, satvar)
        else:
            self._assert_plan[satvar] = (False, column, -bound)
            self._assert_plan[-satvar] = (True, column, -bound - 1)
            self._chain_axioms(column, -bound - 1, -satvar)

    def _chain_axioms(self, column: int, k: int, lit: int) -> None:
        """Slot ``lit`` (reading ``column ≤ k``) into its column's chain.

        Clauses to the two neighbours suffice: the chain's implications
        are transitive, so the closure covers every pair on the column.
        """
        chain = self._chains.setdefault(column, [])
        at = bisect_left(chain, (k, lit))
        axioms = self.pending_axioms
        if at:
            k_pred, pred = chain[at - 1]
            axioms.append([-pred, lit])
            if k_pred == k:
                axioms.append([-lit, pred])
        if at < len(chain):
            k_succ, succ = chain[at]
            axioms.append([-lit, succ])
            if k_succ == k:
                axioms.append([-succ, lit])
        chain.insert(at, (k, lit))

    def has_atom(self, satvar: int) -> bool:
        return satvar in self._atom_info

    # ------------------------------------------------------------------
    # TheoryListener interface
    # ------------------------------------------------------------------
    def assert_index(self, index: int, lit: int) -> list[int] | None:
        plan = self._assert_plan.get(lit)
        if plan is None:
            return None
        simplex = self.simplex
        self._asserted.append((index, len(simplex._undo)))
        upper, column, bound = plan
        if upper:
            conflict = simplex.assert_upper(column, bound, lit)
        else:
            conflict = simplex.assert_lower(column, bound, lit)
        if conflict is not None:
            return conflict
        # check() with an empty dirty set is a no-op (a clean check always
        # drains it), so only pay the pivoting loop when this assertion
        # actually left a basic variable out of bounds.
        if simplex._dirty:
            return simplex.check()
        return None

    def pop_to(self, trail_length: int) -> None:
        asserted = self._asserted
        target = -1
        while asserted and asserted[-1][0] >= trail_length:
            target = asserted.pop()[1]
        if target >= 0:
            self.simplex.undo_to(target)

    def final_check(self) -> list[int] | None:
        return self.simplex.check(full=True)

    # ------------------------------------------------------------------
    # Model access / branching support
    # ------------------------------------------------------------------
    def known_int_vars(self) -> list[IntVar]:
        return list(self._var_of_int)

    def rational_value(self, var: IntVar) -> Fraction | int:
        column = self._var_of_int.get(var)
        if column is None:
            return 0
        return self.simplex.value(column)

    def fractional_var(self) -> tuple[IntVar, Fraction] | None:
        """An integer problem variable with a non-integral simplex value.

        The simplex stores integral values as machine ints (``.denominator
        == 1``), so they are filtered here without touching a ``Fraction``.
        """
        for var, column in self._var_of_int.items():
            value = self.simplex.value(column)
            if value.denominator != 1:
                return var, value
        return None

"""Bound axioms: the same-column implications the theory bridge emits.

Every atom literal on a theory column reads ``column ≤ k`` (or its integer
negation), so the atoms of one column are totally ordered by ``k``.  The
bridge hands the SAT core binary clauses encoding that order.  These
tests check the clauses against the integer semantics of the atoms:

* soundness — every clause holds under the assignment any integer value
  induces;
* completeness — any assignment to a column's literals that satisfies the
  clauses is induced by some integer value;
* batch independence — registering the atoms in a different order, in
  several drained batches, gives the same implication closure.

A deterministic end-to-end check asserts that a real Figure-4 search no
longer meets a theory conflict between two bounds on one column.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Result, Solver, intvar
from repro.smt.lia import LiaBridge
from repro.smt.serialize import restore_solver
from repro.smt.terms import LinearAtom, le

SRC = Path(__file__).resolve().parents[2] / "src"

X = intvar("axiom_x")
Y = intvar("axiom_y")
# Coefficient rows of the atom shapes: ±x on x's own column,
# and the forms x − y / −x + y, which share one slack with opposite signs.
SHAPES = {
    "x": ((X, 1),),
    "-x": ((X, -1),),
    "x-y": ((X, 1), (Y, -1)),
    "y-x": ((X, -1), (Y, 1)),
}
VALUES = range(-7, 8)  # covers every threshold of bounds in [-4, 4]


@st.composite
def atom_sets(draw):
    shapes = draw(st.sampled_from([("x", "-x"), ("x", "-x", "x-y", "y-x")]))
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(shapes), st.integers(-4, 4)),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    return [LinearAtom(SHAPES[shape], bound) for shape, bound in keys]


def _register(atoms, order, cuts):
    """Register ``atoms`` (SAT var i+1 for atoms[i]) in ``order``, draining
    the pending axioms at every cut; returns (bridge, axioms)."""
    bridge = LiaBridge()
    axioms = []
    for position, index in enumerate(order):
        if position in cuts:
            axioms.extend(bridge.pending_axioms)
            bridge.pending_axioms.clear()
        bridge.register_atom(index + 1, atoms[index])
    axioms.extend(bridge.pending_axioms)
    return bridge, axioms


def _holds(clause, truth):
    return any(truth[lit] if lit > 0 else not truth[-lit] for lit in clause)


def _induced(atoms, vx, vd):
    """Literal truth induced by x = vx and x − y = vd."""
    point = {X: vx, Y: vx - vd}
    return {i + 1: atom.evaluate(point) for i, atom in enumerate(atoms)}


def _closure(axioms, n):
    """Every (a, b) with a ⇒ b in the implication graph of the clauses."""
    edges = {lit: set() for v in range(1, n + 1) for lit in (v, -v)}
    for a, b in axioms:
        edges[-a].add(b)
        edges[-b].add(a)
    closure = set()
    for start in edges:
        stack, seen = [start], set()
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure.update((start, reached) for reached in seen)
    return closure


@settings(max_examples=150, deadline=None)
@given(atoms=atom_sets())
def test_axioms_are_sound(atoms):
    _, axioms = _register(atoms, range(len(atoms)), ())
    assert all(len(clause) == 2 for clause in axioms)
    for vx, vd in itertools.product(VALUES, VALUES):
        truth = _induced(atoms, vx, vd)
        assert all(_holds(clause, truth) for clause in axioms), (vx, vd)


@settings(max_examples=150, deadline=None)
@given(atoms=atom_sets())
def test_axioms_are_complete_per_column(atoms):
    bridge, axioms = _register(atoms, range(len(atoms)), ())
    columns: dict[int, list[int]] = {}
    for satvar in range(1, len(atoms) + 1):
        columns.setdefault(bridge._atom_info[satvar][0], []).append(satvar)
    column_of = {v: c for c, vs in columns.items() for v in vs}
    # Axioms never relate two columns.
    for a, b in axioms:
        assert column_of[abs(a)] == column_of[abs(b)]
    for satvars in columns.values():
        local = [c for c in axioms if column_of[abs(c[0])] == column_of[satvars[0]]]
        # Every value of this column (the other column's value is
        # irrelevant to these literals, so both move together).
        induced = {
            tuple(_induced(atoms, v, v)[s] for s in satvars) for v in VALUES
        }
        for bits in itertools.product((False, True), repeat=len(satvars)):
            truth = dict(zip(satvars, bits))
            if all(_holds(clause, truth) for clause in local):
                assert bits in induced, truth


@settings(max_examples=150, deadline=None)
@given(atoms=atom_sets(), data=st.data())
def test_batches_give_the_same_implication_closure(atoms, data):
    n = len(atoms)
    _, one_batch = _register(atoms, range(n), ())
    order = data.draw(st.permutations(range(n)))
    cuts = data.draw(st.sets(st.integers(1, max(1, n - 1))))
    _, batched = _register(atoms, order, cuts)
    assert _closure(batched, n) == _closure(one_batch, n)


def test_solver_counts_axioms_and_restore_rederives_them():
    x = intvar("axiom_solver_x")
    solver = Solver()
    for k in (1, 3, 5):
        solver.add(le(x, k) | le(k + 2, x))
    image = solver.snapshot()
    assert solver.check() == Result.SAT
    # The axioms live in the core only: the CNF image (and with it every
    # snapshot and content hash) is what it was before the check.
    assert solver.snapshot() == image
    first = solver.stats["axioms"]
    assert first > 0
    assert solver.check() == Result.SAT
    assert solver.stats["axioms"] == 0  # nothing new to register
    restored, _ = restore_solver(solver.snapshot())
    assert restored.check() == Result.SAT
    # A restored solver re-derives the original's axioms from its atoms.
    assert restored.stats["axioms"] == first


SAME_COLUMN_SCRIPT = """
import json
from repro.core.experiments import ScenarioSpec, run_scenario
from repro.fabrics import MeshTopology
from repro.smt.lia import LiaBridge

counts = {"theory": 0, "same_column": 0}
assert_index = LiaBridge.assert_index


def counting(self, index, lit):
    conflict = assert_index(self, index, lit)
    if conflict is not None:
        counts["theory"] += 1
        if len({self._assert_plan[reason][1] for reason in conflict}) == 1:
            counts["same_column"] += 1
    return conflict


LiaBridge.assert_index = counting
corner = MeshTopology(3, 2).probe_positions()[0]
spec = ScenarioSpec(
    builder="abstract_mi_mesh",
    kwargs={"width": 3, "height": 2, "directory_node": corner},
    mode="search",
    invariants="eager",
)
result = run_scenario(spec)
print(json.dumps({"minimal_size": result.minimal_size, **counts}))
"""


def test_figure4_search_meets_no_same_column_bound_conflict():
    """Abstract MI 3x2 Figure-4 search, directory in the corner.

    Without bound axioms this search (hash seed 1) meets 118 theory
    conflicts, out of 440, whose reasons are two bounds on one column.
    With them, unit propagation settles every such pair before the
    simplex sees it.
    """
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SAME_COLUMN_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    record = json.loads(completed.stdout)
    assert record["minimal_size"] == 5
    assert record["theory"] > 0  # the counting wrapper was live
    assert record["same_column"] == 0

"""Differential testing of the full SMT solver against enumeration."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Result, Solver, disj, eq, ge, intvar, le, neg

N_VARS = 3
DOMAIN = range(0, 4)  # enumeration domain for each integer variable


def fresh_vars():
    return [intvar(f"v{i}") for i in range(N_VARS)]


def make_atom(variables, spec):
    """Build one linear atom from a generated spec tuple."""
    coeffs, bound, kind = spec
    expr = sum(
        (c * v for c, v in zip(coeffs, variables)),
        0 * variables[0],
    )
    if kind == "le":
        return le(expr, bound), lambda vals: _dot(coeffs, vals) <= bound
    if kind == "ge":
        return ge(expr, bound), lambda vals: _dot(coeffs, vals) >= bound
    return eq(expr, bound), lambda vals: _dot(coeffs, vals) == bound


def _dot(coeffs, vals):
    return sum(c * v for c, v in zip(coeffs, vals))


def assert_canonical_tableau(solver):
    """No simplex row coefficient or β value is an integral Fraction."""
    simplex = solver._bridge.simplex

    def canonical(value):
        return type(value) is int or value.denominator != 1

    for basic, row in simplex._rows.items():
        assert all(canonical(coeff) for coeff in row.values()), (basic, row)
    assert all(canonical(value) for value in simplex._beta), simplex._beta


atom_specs = st.tuples(
    st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in range(N_VARS)]),
    st.integers(min_value=-4, max_value=8),
    st.sampled_from(["le", "ge", "eq"]),
)


@given(st.lists(atom_specs, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_conjunction_matches_enumeration(specs):
    variables = fresh_vars()
    solver = Solver()
    evaluators = []
    for var in variables:
        solver.add(ge(var, min(DOMAIN)))
        solver.add(le(var, max(DOMAIN)))
    for spec in specs:
        atom, evaluator = make_atom(variables, spec)
        solver.add(atom)
        evaluators.append(evaluator)

    expected = any(
        all(ev(point) for ev in evaluators)
        for point in product(DOMAIN, repeat=N_VARS)
    )
    verdict = solver.check()
    assert_canonical_tableau(solver)
    assert verdict == (Result.SAT if expected else Result.UNSAT)
    if verdict == Result.SAT:
        model = solver.model()
        values = [model[v] for v in variables]
        assert all(ev(values) for ev in evaluators)
        assert all(min(DOMAIN) <= value <= max(DOMAIN) for value in values)


@given(st.lists(atom_specs, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_disjunction_matches_enumeration(specs):
    variables = fresh_vars()
    solver = Solver()
    evaluators = []
    for var in variables:
        solver.add(ge(var, min(DOMAIN)))
        solver.add(le(var, max(DOMAIN)))
    terms = []
    for spec in specs:
        atom, evaluator = make_atom(variables, spec)
        terms.append(atom)
        evaluators.append(evaluator)
    half = len(terms) // 2
    solver.add(disj(*terms[:half]) if half else terms[0])
    solver.add(disj(*terms[half:]))

    def point_ok(point):
        first = any(ev(point) for ev in evaluators[:half]) if half else evaluators[0](point)
        second = any(ev(point) for ev in evaluators[half:])
        return first and second

    expected = any(point_ok(p) for p in product(DOMAIN, repeat=N_VARS))
    verdict = solver.check()
    assert_canonical_tableau(solver)
    assert verdict == (Result.SAT if expected else Result.UNSAT)


@given(st.lists(atom_specs, min_size=1, max_size=4))
@settings(max_examples=75, deadline=None)
def test_negation_matches_enumeration(specs):
    variables = fresh_vars()
    solver = Solver()
    evaluators = []
    for var in variables:
        solver.add(ge(var, min(DOMAIN)))
        solver.add(le(var, max(DOMAIN)))
    for index, spec in enumerate(specs):
        atom, evaluator = make_atom(variables, spec)
        if index % 2 == 0:
            solver.add(neg(atom))
            evaluators.append(lambda vals, ev=evaluator: not ev(vals))
        else:
            solver.add(atom)
            evaluators.append(evaluator)

    expected = any(
        all(ev(p) for ev in evaluators) for p in product(DOMAIN, repeat=N_VARS)
    )
    verdict = solver.check()
    assert_canonical_tableau(solver)
    assert verdict == (Result.SAT if expected else Result.UNSAT)

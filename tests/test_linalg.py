"""Exact linear algebra against sympy's row reduction."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilheckeb.linalg import rank, rref, solve

entries = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    want, pivots = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                                 for r in rows]).rref()
    got, got_pivots = rref(rows)
    assert got_pivots == list(pivots)
    assert got == [[Fraction(int(want[i, j].p), int(want[i, j].q)) for j in range(want.cols)]
                   for i in range(want.rows)]
    assert all(type(v) is Fraction for r in got for v in r)
    assert rank(rows) == len(pivots)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_solves(rows, data):
    x = data.draw(st.lists(entries, min_size=len(rows[0]), max_size=len(rows[0])))
    rhs = [sum(Fraction(a) * b for a, b in zip(r, x)) for r in rows]
    sol = solve(rows, rhs)
    assert sol is not None
    assert [sum(Fraction(a) * b for a, b in zip(r, sol)) for r in rows] == rhs


def test_inconsistent_and_empty_systems():
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([], []) == [] and solve([], [1]) is None
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])

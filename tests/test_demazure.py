"""Divided differences against a symbolic oracle, plus their relations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nilheckeb import (
    DX,
    ExtPoly,
    OMEGA,
    SignedPerm,
    _kernels_py,
    act_gen,
    demazure,
    demazure_w,
    demazure_word,
    gen,
    identity,
    longest_element,
    parse,
    random_poly,
    render,
    schubert,
    schur_ext,
    staircase,
    verify_nil_relations,
)
from nilheckeb.demazure import _generator_table, _simple_root


def even_random(n, rng, max_xdeg=4, max_terms=5):
    f = random_poly(n, OMEGA, max_xdeg=max_xdeg, max_terms=max_terms, rng=rng)
    return ExtPoly(n, OMEGA, {k: c for k, c in f.terms.items() if not k[1]})


@pytest.mark.parametrize("n", [2, 3])
def test_matches_symbolic_oracle_on_even_polynomials(n):
    rng = random.Random(10 + n)
    for _ in range(25):
        f = even_random(n, rng)
        i = rng.randint(1, n)
        got = demazure(i, f)
        want = reference.from_sympy(
            reference.sy_demazure(i, reference.to_sympy(f), n), n
        )
        assert got == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_operator_halves_odd_numerators_exactly(n):
    # f - s_n f has the numerators 2c, so c / 2 must come back whole
    rng = random.Random(20 + n)
    for _ in range(15):
        entries = [(Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), rng.randint(1, 4)),
                    tuple(rng.randint(0, 4) for _ in range(n)), ())
                   for _ in range(rng.randint(1, 5))]
        f = ExtPoly.from_terms(n, entries)
        for i in range(1, n + 1):
            want = reference.from_sympy(
                reference.sy_demazure(i, reference.to_sympy(f), n), n
            )
            assert demazure(i, f) == want


# a mask's part in {i, i + 1}, as offsets from i; the twist needs {0}
ADJACENT_PARTS = ({0}, {0, 1}, set(), {1})


@st.composite
def operator_inputs(draw):
    n = draw(st.integers(1, 5))
    i = draw(st.integers(1, n))
    coeff = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6, max_denominator=4)).filter(bool)
    term = st.tuples(coeff, st.tuples(*[st.integers(0, 9)] * n),
                     st.sets(st.integers(1, n)), st.sampled_from(ADJACENT_PARTS))
    entries = []
    for c, e, m, part in draw(st.lists(term, min_size=1, max_size=8)):
        if i < n:
            m = (m - {i, i + 1}) | {i + d for d in part}
        entries.append((c, e, sorted(m)))
    return i, ExtPoly.from_terms(n, entries)


@settings(max_examples=200, deadline=None)
@given(operator_inputs())
def test_matches_the_two_step_definition(case):
    i, f = case
    got, want = demazure(i, f), reference.oracle_demazure(i, f)
    assert got == want
    assert all(type(got.terms[k]) is int for k, c in want.terms.items() if type(c) is int)


@pytest.mark.parametrize("f", [ExtPoly.x(1, 2, DX), ExtPoly.odd(1, 2, DX)], ids=["x1", "dx1"])
def test_rejects_the_dx_family(f):
    with pytest.raises(ValueError, match="divided differences act on the w family"):
        demazure(1, f)


def test_hand_values():
    n = 2
    assert render(demazure(1, parse("x1", n))) == "1"
    assert render(demazure(1, parse("x1^2", n))) == "x1 + x2"
    assert render(demazure(2, parse("x2", n))) == "1"
    assert render(demazure(2, parse("x2^3", n))) == "x2^2"
    assert demazure(2, parse("x2^2", n)).is_zero()
    assert render(demazure(1, parse("w1", n))) == "-x1*w2 - x2*w2"
    assert render(demazure(1, parse("x1*w1", n))) == "w1 - x1*x2*w2 - x2^2*w2"


def test_nil_and_braid():
    rng = random.Random(2)
    n = 3
    for _ in range(15):
        f = random_poly(n, OMEGA, rng=rng)
        for i in range(1, n + 1):
            assert demazure(i, demazure(i, f)).is_zero()
        assert demazure_word((1, 2, 1), f) == demazure_word((2, 1, 2), f)
        assert demazure_word((2, 3, 2, 3), f) == demazure_word((3, 2, 3, 2), f)
        assert demazure_word((1, 3), f) == demazure_word((3, 1), f)


def test_twisted_leibniz():
    rng = random.Random(3)
    n = 3
    for _ in range(15):
        f = random_poly(n, OMEGA, max_terms=3, rng=rng)
        g = random_poly(n, OMEGA, max_terms=3, rng=rng)
        for i in range(1, n + 1):
            lhs = demazure(i, f * g)
            rhs = demazure(i, f) * g + act_gen(i, f) * demazure(i, g)
            assert lhs == rhs


def test_longest_word_independent_of_reduced_word():
    n = 2
    rng = random.Random(4)
    w0 = longest_element(n)
    for _ in range(10):
        f = random_poly(n, OMEGA, max_xdeg=5, rng=rng)
        assert demazure_word((1, 2, 1, 2), f) == demazure_word((2, 1, 2, 1), f)
        assert demazure_w(w0, f) == demazure_word((1, 2, 1, 2), f)


@st.composite
def chain_inputs(draw):
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    coeff = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6, max_denominator=4)).filter(bool)
    term = st.tuples(coeff, st.tuples(*[st.integers(0, 2 * n)] * n), st.sets(st.integers(1, n)))
    entries = [(c, e, sorted(m)) for c, e, m in draw(st.lists(term, min_size=1, max_size=4))]
    return SignedPerm(s * p for s, p in zip(signs, perm)), ExtPoly.from_terms(n, entries)


@settings(max_examples=150, deadline=None)
@given(chain_inputs())
def test_walk_matches_the_smallest_descent_word(case):
    w, f = case
    assert demazure_w(w, f) == reference.oracle_demazure_w(w, f)


@pytest.fixture
def fed(monkeypatch):
    """The number of terms fed to the kernel at each step, in order."""
    counts, kernel = [], _kernels_py.demazure_terms

    def counting(terms, i, n):
        counts.append(len(terms))
        return kernel(terms, i, n)

    monkeypatch.setattr(_kernels_py, "demazure_terms", counting)
    return counts


@pytest.mark.parametrize("chain,steps", [
    (lambda: demazure_w(longest_element(5), staircase((), 5)),
     [1, 1, 3, 1, 1, 5, 10, 4, 1, 1, 7, 21, 35, 13, 5, 1, 1, 9, 36, 84, 126, 46, 16, 6, 1]),
    (lambda: schur_ext((), (1,), 6),
     [1] * 26 + [3, 6, 12, 25, 55, 26, 14, 9, 7, 6]),
], ids=["schubert-e-5", "schur-1-6"])
def test_chains_strip_the_largest_descent_first(fed, chain, steps):
    # terms fed to the kernel at each step, 126 / 435 and 55 / 189 largest / summed;
    # stripping the smallest descent first feeds 291 / 2,809 and 29,724 / 260,918
    chain()
    assert fed == steps


@pytest.mark.parametrize("window,steps", [
    ((-5, 4, 1, -2, -3), [1, 2, 5, 19, 66, 29, 53, 83, 86, 246, 438]),
    ((1, 3, 2, -4, -5),
     [1, 2, 5, 14, 42, 24, 35, 47, 61, 18, 45, 68, 152, 162, 53, 86, 62, 35, 114, 143]),
    ((1, 2, 3, 4, 5), []),
    ((2, 1, 3, 4, 5), []),
    ((1, 3, 2, 4, 5), [1]),
], ids=["middle", "near-top", "identity", "s1", "s2"])
def test_schubert_climbs_ascending_runs(fed, window, steps):
    # terms fed at each step from the lowest spine element above w, along ascending
    # runs, 438 / 1,028 and 162 / 1,169 largest / summed on the first two; from x^delta
    # the runs fed 438 / 1,043, 162 / 1,169, 107 / 770, 239 / 1,492 and 162 / 1,062,
    # and the largest-descent-first word 841 / 3,781, 775 / 4,147 and 126 / 435 on the
    # first three.  S_e and S_(s1) are spine monomials themselves.
    schubert(SignedPerm(window), 5)
    assert fed == steps


def test_demazure_w_rejects_another_rank():
    with pytest.raises(ValueError, match="rank mismatch"):
        demazure_w(longest_element(2), ExtPoly.x(1, 3))


def x1_dx1():
    return ExtPoly.x(1, 2, DX) * ExtPoly.odd(1, 2, DX)


@pytest.mark.parametrize("chain", [
    lambda: demazure_w(identity(2), x1_dx1()),
    lambda: demazure_word((), x1_dx1()),
    lambda: demazure_w(gen(1, 2), ExtPoly.zero(2, DX)),
], ids=["identity", "empty-word", "zero"])
def test_chains_reject_the_dx_family_whatever_the_word(chain):
    # demazure_w(gen(1, 2), x1 * dx1) raises on its first step; these take no step
    with pytest.raises(ValueError, match="divided differences act on the w family"):
        chain()


def test_demazure_word_checks_every_letter_at_entry():
    # d_2 sends x1 to zero before the letter 9 is reached
    with pytest.raises(ValueError, match=r"operator index 9 out of range 1\.\.2"):
        demazure_word((9, 2), ExtPoly.x(1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_suite_green(n):
    rep = verify_nil_relations(n, trials=25, seed=0)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", range(1, 6))
def test_generator_table_matches_the_oracle_on_every_generator(n):
    xs = [ExtPoly.x(j, n) for j in range(1, n + 1)]
    ws = [ExtPoly.odd(j, n) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        evens, odds = _generator_table(i, ws)
        assert evens == [reference.oracle_demazure(i, g) for g in xs]
        assert odds == [reference.oracle_demazure(i, g) for g in ws]
        root = _simple_root(i, n)
        assert all(g - act_gen(i, g) == root * dg for g, dg in zip(xs + ws, evens + odds))

"""Laws of the term kernels (odd signs, the divided difference, clearing
denominators) and of the oracle's division kernels."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nilheckeb import _kernels_py as kern
from nilheckeb import OMEGA, ExtPoly, normalize_coeff


def random_terms(rng, n, nterms, with_mask=True):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 4) for _ in range(n))
        m = tuple(i for i in range(1, n + 1) if with_mask and rng.random() < 0.4)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            out[(e, m)] = out.get((e, m), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def test_odd_merge_signs():
    assert kern.odd_merge((), (2,)) == (1, (2,))
    assert kern.odd_merge((1,), (2,)) == (1, (1, 2))
    assert kern.odd_merge((2,), (1,)) == (-1, (1, 2))
    assert kern.odd_merge((1, 3), (2,)) == (-1, (1, 2, 3))
    assert kern.odd_merge((2,), (2,)) is None


masks = st.sets(st.integers(1, 8)).map(lambda m: tuple(sorted(m)))


@settings(max_examples=300, deadline=None)
@given(masks, masks)
def test_odd_merge_sign_is_the_inversion_parity(ma, mb):
    merged = kern.odd_merge(ma, mb)
    if set(ma) & set(mb):
        assert merged is None
        return
    seq = ma + mb
    inversions = sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])
    assert merged == ((-1) ** inversions, tuple(sorted(seq)))


def test_division_reconstructs():
    rng = random.Random(5)
    for _ in range(20):
        n = 3
        a = random_terms(rng, n, 5)
        i, j = rng.sample(range(n), 2)
        quot, rem = reference.div_linear_terms(a, i, j)
        # quotient * (x_i - x_j) + remainder == a
        ei = [0] * n
        ei[i] = 1
        ej = [0] * n
        ej[j] = 1
        form = {(tuple(ei), ()): Fraction(1), (tuple(ej), ()): Fraction(-1)}
        back = kern.add_terms(kern.mul_terms(quot, form), rem)
        assert back == a
        assert all(e[i] == 0 for (e, _) in rem)


def test_var_division_reconstructs():
    rng = random.Random(6)
    for _ in range(20):
        n = 2
        a = random_terms(rng, n, 5)
        i = rng.randrange(n)
        quot, rem = reference.div_var_terms(a, i)
        ei = [0] * n
        ei[i] = 1
        var = {(tuple(ei), ()): Fraction(1)}
        back = kern.add_terms(kern.mul_terms(quot, var), rem)
        assert back == a
        assert all(e[i] == 0 for (e, _) in rem)


COEFFS = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=6)).filter(bool)


def term_dicts(n):
    key = st.tuples(st.tuples(*[st.integers(0, 4)] * n),
                    st.sets(st.integers(1, n)).map(lambda m: tuple(sorted(m))))
    return st.dictionaries(key, COEFFS, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_demazure_terms_leaves_its_input_unchanged(data, sign_operator):
    n = data.draw(st.integers(1 if sign_operator else 2, 4))
    i = n if sign_operator else data.draw(st.integers(1, n - 1))
    terms = data.draw(term_dicts(n))
    snapshot = dict(terms)
    out = kern.demazure_terms(terms, i, n)
    assert out is not terms
    assert terms == snapshot
    assert ExtPoly(n, OMEGA, out) == reference.oracle_demazure(i, ExtPoly(n, OMEGA, terms))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_demazure_kills_exactly_the_terms_the_kernel_sends_to_zero(n):
    masks = [m for r in range(n + 1) for m in itertools.combinations(range(1, n + 1), r)]
    for e in itertools.product(range(4), repeat=n):
        for m in masks:
            for i in range(1, n + 1):
                zero = kern.demazure_terms({(e, m): 1}, i, n) == {}
                assert kern.demazure_kills(e, m, i, n) == zero, (e, m, i)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(term_dicts))
def test_clearing_denominators_round_trips(terms):
    den, scaled = kern.clear_denominators(terms)
    assert den == lcm(*(Fraction(c).denominator for c in terms.values()))
    assert all(type(c) is int for c in scaled.values())
    assert scaled == {k: c * den for k, c in terms.items()}
    back = kern.divide_terms(scaled, den)
    want = {k: normalize_coeff(c) for k, c in terms.items()}
    assert back == want
    assert all(type(back[k]) is type(c) for k, c in want.items())
